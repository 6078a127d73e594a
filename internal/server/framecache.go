package server

import (
	"sync/atomic"

	"skyscraper/internal/content"
	"skyscraper/internal/core"
	"skyscraper/internal/metrics"
	"skyscraper/internal/wire"
)

// frameCache exploits the paper's central observation — channel i
// rebroadcasts the same fragment forever — without holding the catalog in
// memory. Everything in a chunk's wire frame depends only on (video,
// channel, offset) except Seq, which the payload CRC deliberately
// excludes. Of that, the payload is a cheap streaming read (content.Fill,
// the stand-in for the paper's cyclic read from storage) and the header
// is seven stores; the one part that is expensive to recompute and tiny to
// keep is the payload CRC. So the cache holds exactly that: one word per
// (video, channel, chunk) and per parity frame, filled lazily on first
// use, and a frame is materialised when it is sent — payload filled
// straight into the frame, header written once with its final Seq — into
// memory its sender owns. Nothing built here is shared: a re-send builds
// its own frame with its own Seq, so there is no frame a second goroutine
// could observe half-patched.
type frameCache struct {
	chunkBytes int

	// hits counts materialisations that found their CRC word, misses those
	// that had to hash the payload (padded: every shard and control
	// connection bumps them); words is how many CRC words the tables hold.
	hits   metrics.PaddedCounter
	misses metrics.PaddedCounter
	words  int64

	// chans is indexed [video*K + (channel-1)]; built once, read-only.
	chans []*channelCache
	k     int

	// fecGroup is the parity stripe width G (0 = no stripe); nparity how
	// many parity frames each group carries (1 = XOR, 2 = RS P+Q). A
	// parity frame is as repetition-invariant as the chunks it covers — a
	// pure function of (video, channel, group) — so its CRC is cached the
	// same way.
	fecGroup int
	nparity  int
}

// channelCache is one channel's slice of the cache.
type channelCache struct {
	video   uint16
	channel uint16
	// base is the absolute byte offset of the channel's fragment within
	// the video; total is the fragment size in bytes.
	base  int64
	total uint32
	// crcs[c] holds crcSet|crc once chunk c's payload CRC is known; zero
	// means not yet computed. Writes of the same value may race benignly.
	crcs []atomic.Uint64
	// pcrcs is the same for parity frames, indexed
	// [group*nparity + parityIndex]; empty when the stripe is off.
	pcrcs []atomic.Uint64
}

// crcSet marks a CRC word as populated (a CRC of zero is legitimate).
const crcSet = 1 << 32

// newFrameCache lays out the cache for a scheme: one channelCache per
// (video, channel), one CRC word per chunk from the fragment geometry, plus
// nparity words per stripe group when fecGroup > 0.
func newFrameCache(sch *core.Scheme, bytesPerUnit, chunkBytes, fecGroup, nparity int) *frameCache {
	k := sch.K()
	videos := sch.Config().Videos
	if fecGroup <= 0 {
		fecGroup, nparity = 0, 0
	}
	fc := &frameCache{chunkBytes: chunkBytes, k: k,
		chans: make([]*channelCache, videos*k), fecGroup: fecGroup, nparity: nparity}
	sizes := sch.Sizes()
	for v := 0; v < videos; v++ {
		var base int64
		for i := 1; i <= k; i++ {
			total := int(sizes[i-1]) * bytesPerUnit
			chunks := total / chunkBytes
			cc := &channelCache{
				video:   uint16(v),
				channel: uint16(i),
				base:    base,
				total:   uint32(total),
				crcs:    make([]atomic.Uint64, chunks),
			}
			if fecGroup > 0 {
				cc.pcrcs = make([]atomic.Uint64, (chunks+fecGroup-1)/fecGroup*nparity)
			}
			fc.words += int64(len(cc.crcs) + len(cc.pcrcs))
			fc.chans[v*k+i-1] = cc
			base += int64(total)
		}
	}
	return fc
}

// channel returns the cache slice for (video v, channel i).
func (fc *frameCache) channel(v, i int) *channelCache { return fc.chans[v*fc.k+i-1] }

// CacheStats reports the frame cache's activity and footprint.
type CacheStats struct {
	// Hits counts frames materialised with a cached CRC, Misses those
	// whose CRC had to be computed (once per chunk and parity frame).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Bytes is the footprint of the CRC words — all the cache keeps.
	Bytes int64 `json:"bytes"`
}

func (fc *frameCache) stats() CacheStats {
	return CacheStats{Hits: fc.hits.Value(), Misses: fc.misses.Value(), Bytes: 8 * fc.words}
}

// crc returns the payload CRC kept in slot, hashing payload to fill the
// slot the first time.
func (fc *frameCache) crc(slot *atomic.Uint64, payload []byte) uint32 {
	if v := slot.Load(); v&crcSet != 0 {
		fc.hits.Inc()
		return uint32(v)
	}
	fc.misses.Inc()
	crc := wire.PayloadCRC(payload)
	slot.Store(crcSet | uint64(crc))
	return crc
}

// materialise builds chunk c's frame for repetition seq in a's memory:
// the payload straight from the content function into its place behind
// the header, the CRC from the cache. It is the one way a data frame is
// built — by the wheel and the re-send paths alike.
// chunkBytes <= wire.MaxPayload is validated at server construction.
func (fc *frameCache) materialise(a *frameArena, cc *channelCache, c int, seq uint32) []byte {
	off := c * fc.chunkBytes
	frame := a.take(wire.EncodedSize(fc.chunkBytes))
	payload := frame[wire.HeaderSize:]
	content.Fill(payload, int(cc.video), cc.base+int64(off))
	wire.PutHeader(frame, wire.KindData, cc.video, cc.channel, seq, uint32(off), cc.total,
		len(payload), fc.crc(&cc.crcs[c], payload))
	return frame
}

// groupCount is how many data chunks stripe group g of this channel
// covers (the tail group may be short).
func (cc *channelCache) groupCount(fc *frameCache, g int) int {
	count := len(cc.crcs) - g*fc.fecGroup
	if count > fc.fecGroup {
		count = fc.fecGroup
	}
	return count
}

// materialiseParity builds the parity frame (group g, index pi) for
// repetition seq in a's memory — the one way a parity frame is built. The
// stripe payload is assembled in place behind the header: the group's
// first chunk is filled straight into the parity block (its coefficient is
// 1 under both codes), the rest are regenerated into a chunk of a's
// memory and folded in.
func (fc *frameCache) materialiseParity(a *frameArena, cc *channelCache, g, pi int, seq uint32) []byte {
	count := cc.groupCount(fc, g)
	frame := a.take(wire.EncodedSize(wire.ParityOverhead(count, fc.chunkBytes)))
	payload := frame[wire.HeaderSize:]
	prefix := wire.AppendParityPayload(payload[:0], count, nil)
	block := payload[len(prefix):]
	first := g * fc.fecGroup
	content.Fill(block, int(cc.video), cc.base+int64(first*fc.chunkBytes))
	if count > 1 {
		tmp := a.take(fc.chunkBytes)
		for j := 1; j < count; j++ {
			content.Fill(tmp, int(cc.video), cc.base+int64((first+j)*fc.chunkBytes))
			if pi == 0 {
				wire.XorAccum(block, tmp)
			} else {
				wire.GfMulAccum(block, tmp, wire.GfExpPow(j))
			}
		}
	}
	// Config.validate keeps ParityOverhead(FecGroup, chunkBytes) within
	// wire.MaxPayload.
	wire.PutHeader(frame, wire.KindParity|byte(pi), cc.video, cc.channel, seq, uint32(first*fc.chunkBytes), cc.total,
		len(payload), fc.crc(&cc.pcrcs[g*fc.nparity+pi], payload))
	return frame
}

// frameArena is a sender's build space for the frames of one tick: frames
// are carved from one slab, reset hands the whole slab back, and nothing
// is ever freed piecemeal. A frame is valid from take until the owner's
// next reset — which the owner calls only after the send that consumed
// the frames has returned (SendBatch and Send are synchronous; a sender
// that keeps a frame past its return, like the fault injector, copies it).
// Each egress shard and each control connection owns one, so concurrent
// builders never share memory.
type frameArena struct {
	slab []byte
	used int // bytes carved from slab since reset
	want int // bytes asked for since reset, carved or not
}

// reset releases every frame taken since the last reset. A tick that asked
// for more than the slab holds grows it here, once, to what that tick
// needed plus a quarter — so the steady state allocates nothing, a
// catch-up burst allocates once, and an audience that grows a group at a
// time regrows the slab a logarithmic number of times, not once per group.
func (a *frameArena) reset() {
	if a.want > len(a.slab) {
		a.slab = make([]byte, a.want+a.want/4)
	}
	a.used, a.want = 0, 0
}

// take returns n bytes of build space. A request the slab cannot hold is
// served from the heap for this tick; reset then sizes the slab so the
// same demand fits next time.
func (a *frameArena) take(n int) []byte {
	a.want += n
	if a.used+n > len(a.slab) {
		return make([]byte, n)
	}
	b := a.slab[a.used : a.used+n : a.used+n]
	a.used += n
	return b
}
