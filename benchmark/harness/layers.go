package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"time"

	"skyscraper/internal/content"
	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/viewer"
	"skyscraper/internal/wire"
)

// The layer probes are timed loops over each layer's exported functions
// on the workload's own geometry. They run after the live window of a
// traced run; multiplied by the run's counts they give the layer budget,
// and what the budget cannot explain is trace.unattributed_cpu_share.

// probeBudget is how long each timed loop runs.
const probeBudget = 120 * time.Millisecond

// sink keeps the compiler from discarding a measured call's result.
var sink int

// timeLoop runs body (which performs `per` operations per call) until the
// budget is spent and returns ns per operation.
func timeLoop(per int, body func()) float64 {
	body() // warm caches and pools before timing
	start, ops := time.Now(), 0
	for time.Since(start) < probeBudget {
		for i := 0; i < 16; i++ {
			body()
		}
		ops += 16 * per
	}
	return float64(time.Since(start)) / float64(ops)
}

// LayerProbes measures ns per operation for every traced per-layer metric
// that applies to plan's workload. batch is the run's datagrams per
// wakeup: the fan-out the egress probe sends per SendBatch.
func LayerProbes(plan *LivePlan, batch float64) (map[string]float64, error) {
	spec := plan.Spec
	cb := spec.ChunkBytes
	out := map[string]float64{}
	payload := make([]byte, cb)
	kib := float64(cb) / 1024

	out["content.fill_ns_per_kib"] = timeLoop(1, func() { content.Fill(payload, 1, 4096) }) / kib
	out["content.verify_ns_per_kib"] = timeLoop(1, func() { sink += content.Verify(payload, 1, 4096) }) / kib

	chunk := wire.Chunk{Video: 1, Channel: 2, Seq: 7, Offset: uint32(cb), Total: uint32(8 * cb), Payload: payload}
	frame, err := chunk.Encode(nil)
	if err != nil {
		return nil, err
	}
	scratch := make([]byte, 0, len(frame))
	out["wire.encode_ns"] = timeLoop(1, func() {
		b, _ := chunk.Encode(scratch[:0]) // cannot fail: the payload was accepted above
		sink += len(b)
	})
	seq := uint32(0)
	out["wire.patchseq_ns"] = timeLoop(1, func() {
		seq++
		if wire.PatchSeq(frame, seq) != nil {
			sink++
		}
	})
	out["wire.decode_ns"] = timeLoop(1, func() {
		c, _ := wire.Decode(frame) // a frame this package just encoded
		sink += int(c.Seq)
	})

	sch, err := Scheme(spec.Videos, spec.Channels, spec.Width)
	if err != nil {
		return nil, err
	}
	out["core.new_ns"] = timeLoop(1, func() {
		s, _ := Scheme(spec.Videos, spec.Channels, spec.Width) // built once already
		sink += s.K()
	})
	start := int64(0)
	out["core.plan_schedule_ns"] = timeLoop(1, func() {
		start++
		p, _ := sch.PlanSchedule(start) // SB plans never fail (section 4)
		sink += len(p.Downloads)
	})

	// viewer.Machine in the cohort's observe mode, one fragment of each
	// distinct size, weighted by how many chunks of the video that size
	// carries: every arrival costs one Chunk and one Next.
	epoch := time.Now()
	var weighted, chunksTotal float64
	bySize := map[int64]int{}
	for _, s := range sch.Sizes() {
		bySize[s]++
	}
	for size, count := range bySize {
		params := viewer.FragmentParams{Video: 0, Channel: 1, Size: size, TuneUnit: 0, PlayUnit: 0,
			TotalBytes: int(size) * spec.BytesPerUnit, ChunkBytes: cb, BytesPerUnit: spec.BytesPerUnit,
			Epoch: epoch, Unit: spec.Unit, Slack: spec.Unit, Lag: spec.Unit / 3, Observe: true, FecGroup: spec.FecGroup}
		n := int(size) * spec.BytesPerUnit / cb
		spacing := time.Duration(size) * spec.Unit / time.Duration(n)
		ns := timeLoop(n, func() {
			m := viewer.NewMachine(params)
			for idx := 0; idx < n; idx++ {
				at := epoch.Add(time.Duration(idx) * spacing)
				m.Chunk(idx, at)
				sink += int(m.Next(at).Kind)
			}
		})
		w := float64(count) * float64(n)
		weighted += ns * w
		chunksTotal += w
	}
	out["viewer.machine_ns_per_chunk"] = weighted / chunksTotal

	sendNs, drainNs, err := probeLoopback(frame, int(math.Max(1, math.Round(batch))))
	if err != nil {
		return nil, err
	}
	out["mcast.sendbatch_ns_per_datagram"], out["mcast.recv_drain_ns_per_datagram"] = sendNs, drainNs

	if spec.Faults == nil {
		return out, nil
	}

	// The lossy plane: parity codec, stripe reassembly, NACK codec and the
	// fault injector's per-chunk send.
	g := spec.FecGroup
	block := make([]byte, cb)
	pp := wire.AppendParityPayload(nil, g, block)
	pframe, err := wire.EncodeParityFrame(nil, 1, 2, 7, 0, uint32(8*cb), 0, pp, wire.PayloadCRC(pp))
	if err != nil {
		return nil, err
	}
	out["wire.parity_decode_ns"] = timeLoop(1, func() {
		p, _ := wire.DecodeParity(pframe) // a frame this package just encoded
		sink += p.Count
	})
	par, err := wire.DecodeParity(pframe)
	if err != nil {
		return nil, err
	}
	nchunks := 8 * g
	var heals []viewer.Heal
	out["viewer.stripe_ns_per_chunk"] = timeLoop(nchunks+nchunks/g, func() {
		st := viewer.NewStripe(g, spec.FecMode, cb, nchunks)
		for idx := 0; idx < nchunks; idx++ {
			heals = st.Data(idx, payload, heals[:0])
			if (idx+1)%g == 0 {
				par.Base = uint32((idx + 1 - g) * cb)
				heals = st.Parity(&par, heals[:0])
			}
		}
	})
	var buf bytes.Buffer
	rd := bufio.NewReader(&buf)
	out["wire.nack_codec_ns"] = timeLoop(1, func() {
		buf.Reset()
		rd.Reset(&buf)
		nk := wire.NackFromChunks(1, 2, 7, []int{3, 4, 9})
		if wire.WriteControl(&buf, &wire.Control{Kind: wire.KindNack, Nack: nk}) == nil {
			if m, err := wire.ReadControl(rd); err == nil {
				sink += len(m.Nack.Bitmap)
			}
		}
	})
	injNs, err := probeInjector(plan, frame)
	if err != nil {
		return nil, err
	}
	out["faults.send_ns_per_chunk"] = injNs
	return out, nil
}

// probeLoopback times Hub.SendBatch → SharedReceiver over loopback with
// one member: batches of `batch` datagrams, each drained from the
// subscription before the next is sent. It returns ns per datagram spent
// inside SendBatch, and from its return to the last datagram drained.
func probeLoopback(frame []byte, batch int) (sendNs, drainNs float64, err error) {
	hub, err := mcast.NewHub()
	if err != nil {
		return 0, 0, err
	}
	defer hub.Close()
	grp := mcast.Group{Video: 1, Channel: 2}
	rcv, err := mcast.NewSharedReceiver(0, func([]byte) (mcast.Group, bool) { return grp, true })
	if err != nil {
		return 0, 0, err
	}
	defer rcv.Close()
	sub, err := rcv.Subscribe(grp, 4*batch, len(frame))
	if err != nil {
		return 0, 0, err
	}
	if err := hub.Join(grp, rcv.Addr()); err != nil {
		return 0, 0, err
	}
	// Distinct backing per entry, as the wheel stages them.
	entries := make([]mcast.BatchEntry, batch)
	for i := range entries {
		entries[i] = mcast.BatchEntry{Group: grp, Frame: append([]byte(nil), frame...)}
	}
	var inSend, inDrain time.Duration
	var datagrams int
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for start := time.Now(); time.Since(start) < 2*probeBudget; {
		t0 := time.Now()
		n, err := hub.SendBatch(entries)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		timeout.Reset(time.Second)
		for i := 0; i < n; i++ {
			select {
			case slot := <-sub.Ready():
				sub.Release(slot)
			case <-timeout.C:
				return 0, 0, fmt.Errorf("harness: loopback probe lost a datagram (%d of %d drained)", i, n)
			}
		}
		inSend += t1.Sub(t0)
		inDrain += time.Since(t1)
		datagrams += n
	}
	return float64(inSend) / float64(datagrams), float64(inDrain) / float64(datagrams), nil
}

// probeInjector times faults.Injector.Send under the workload's own plan,
// one chunk per call to a group with one (discarding) member, over the
// chunk positions of one fragment.
func probeInjector(plan *LivePlan, frame []byte) (float64, error) {
	hub, err := mcast.NewHub()
	if err != nil {
		return 0, err
	}
	defer hub.Close()
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer sinkConn.Close() // never read: the kernel drops the overflow, which is the point
	grp := mcast.Group{Video: 1, Channel: 2}
	if err := hub.Join(grp, sinkConn.LocalAddr().(*net.UDPAddr)); err != nil {
		return 0, err
	}
	inj, err := faults.New(hub, plan.Spec.Faults.Plan(plan.FaultSeed, plan.Spec.ChunkBytes))
	if err != nil {
		return 0, err
	}
	defer inj.Flush()
	// Walk the offsets of an 8-chunk fragment so the per-position rolls and
	// the burst chain are exercised as the wheel exercises them.
	cb := plan.Spec.ChunkBytes
	frames := make([][]byte, 8)
	for i := range frames {
		c := wire.Chunk{Video: 1, Channel: 2, Offset: uint32(i * cb), Total: uint32(8 * cb), Payload: frame[wire.HeaderSize:]}
		if frames[i], err = c.Encode(nil); err != nil {
			return 0, err
		}
	}
	return timeLoop(len(frames), func() {
		for _, fr := range frames {
			n, _ := inj.Send(grp, fr) // best-effort fan-out; a full sink buffer is not an error here
			sink += n
		}
	}), nil
}

// budgetCounts are the run's own counts the probes are multiplied by.
type budgetCounts struct {
	window, sent, misses, deliveries, reads float64
	srvCPU, audCPU, nacks, parityDeliveries float64
}

// BudgetLine is one layer's share of a role's CPU.
type BudgetLine struct {
	Layer   string  `json:"layer"`
	Ops     float64 `json:"ops"`
	NsPerOp float64 `json:"nsPerOp"`
	Share   float64 `json:"share"` // of the role's measured CPU
}

// LayerBudget splits each child's measured CPU into what the layer
// probes account for and the remainder.
type LayerBudget struct {
	Server            []BudgetLine `json:"server"`
	Audience          []BudgetLine `json:"audience"`
	ServerUnattr      float64      `json:"serverUnattributedShare"`
	AudienceUnattr    float64      `json:"audienceUnattributedShare"`
	UnattributedShare float64      `json:"unattributedShare"` // both children together
}

// layerBudget multiplies ns/op by the run's counts. Server: every channel
// stages a chunk each spacing (a Seq patch), misses re-fill and re-encode,
// and each datagram leaves through SendBatch — or, under a fault plan,
// each staged chunk through Injector.Send. Audience: each datagram read
// is drained once; each delivery is decoded, verified and booked.
func layerBudget(plan *LivePlan, ns map[string]float64, c budgetCounts) LayerBudget {
	spec := plan.Spec
	kib := float64(spec.ChunkBytes) / 1024
	staged := float64(spec.Videos*spec.Channels) * c.window / plan.Spec.Unit.Seconds() * float64(spec.BytesPerUnit/spec.ChunkBytes)
	var b LayerBudget
	add := func(lines *[]BudgetLine, total *float64, cpu float64, layer string, ops, nsPerOp float64) {
		if ops <= 0 || nsPerOp <= 0 {
			return
		}
		*lines = append(*lines, BudgetLine{Layer: layer, Ops: ops, NsPerOp: nsPerOp, Share: ops * nsPerOp / cpu})
		*total += ops * nsPerOp
	}
	var srv, aud float64
	add(&b.Server, &srv, c.srvCPU, "wire.patchseq", staged, ns["wire.patchseq_ns"])
	add(&b.Server, &srv, c.srvCPU, "content.fill", c.misses, ns["content.fill_ns_per_kib"]*kib)
	add(&b.Server, &srv, c.srvCPU, "wire.encode", c.misses, ns["wire.encode_ns"])
	if spec.Faults != nil {
		add(&b.Server, &srv, c.srvCPU, "faults.send", staged, ns["faults.send_ns_per_chunk"])
		add(&b.Server, &srv, c.srvCPU, "wire.nack_codec", c.nacks, ns["wire.nack_codec_ns"])
	} else {
		add(&b.Server, &srv, c.srvCPU, "mcast.sendbatch", c.sent, ns["mcast.sendbatch_ns_per_datagram"])
	}
	data := c.deliveries - c.parityDeliveries
	add(&b.Audience, &aud, c.audCPU, "mcast.recv_drain", c.reads, ns["mcast.recv_drain_ns_per_datagram"])
	add(&b.Audience, &aud, c.audCPU, "wire.decode", data, ns["wire.decode_ns"])
	add(&b.Audience, &aud, c.audCPU, "content.verify", data, ns["content.verify_ns_per_kib"]*kib)
	add(&b.Audience, &aud, c.audCPU, "viewer.machine", data, ns["viewer.machine_ns_per_chunk"])
	if spec.Faults != nil {
		add(&b.Audience, &aud, c.audCPU, "wire.parity_decode", c.parityDeliveries, ns["wire.parity_decode_ns"])
		add(&b.Audience, &aud, c.audCPU, "viewer.stripe", c.deliveries, ns["viewer.stripe_ns_per_chunk"])
	}
	b.ServerUnattr = 1 - srv/c.srvCPU
	b.AudienceUnattr = 1 - aud/c.audCPU
	b.UnattributedShare = 1 - (srv+aud)/(c.srvCPU+c.audCPU)
	return b
}
