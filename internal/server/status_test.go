package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/wire"
)

// statusServer starts a server with the parity stripe and a fault plan on,
// serves its HTTP endpoint and joins one channel through the control
// plane, then waits until parity frames are on the wire — so every key of
// the document, the stripe's and the injector's included, is live. It
// returns the server, the endpoint's base URL and the open control
// connection.
func statusServer(t *testing.T) (*Server, string, net.Conn, *bufio.Reader) {
	t.Helper()
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 2, 3),
		Unit:         20 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		FecGroup:     4,
		Faults:       &faults.Plan{Seed: 7, Drop: 0.05},
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	base, err := srv.ServeStatus()
	if err != nil {
		t.Fatal(err)
	}
	recv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindJoin, Video: 0, Channel: 1, Port: recv.Addr().Port}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadControl(r); err != nil || m.Kind != wire.KindJoined {
		t.Fatalf("join: %+v %v", m, err)
	}
	waitFor(t, 10*time.Second, "parity frames on the wire", func() bool { return srv.Status().ParityFrames > 0 })
	return srv, base, conn, r
}

// statusOverControl is one KindStats round trip: the payload as sent.
func statusOverControl(t *testing.T, conn net.Conn, r *bufio.Reader) []byte {
	t.Helper()
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindStats}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadControl(r)
	if err != nil || m.Kind != wire.KindStatsOK || len(m.Stats) == 0 {
		t.Fatalf("stats: %+v %v", m, err)
	}
	return m.Stats
}

// httpGet returns the status code and body of GET base+path.
func httpGet(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// decodeStrict decodes doc into a StatusSnapshot, refusing any key the
// type does not declare.
func decodeStrict(t *testing.T, doc []byte) StatusSnapshot {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var st StatusSnapshot
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("%v in %s", err, doc)
	}
	return st
}

// layoutEcho is the part of a document that describes the server's
// configuration rather than its traffic, so two reads of it agree exactly.
func layoutEcho(s StatusSnapshot) StatusSnapshot {
	return StatusSnapshot{Videos: s.Videos, ChannelsPerVideo: s.ChannelsPerVideo, Width: s.Width,
		SizeUnits: s.SizeUnits, UnitMillis: s.UnitMillis, FecGroup: s.FecGroup,
		EgressShards: s.EgressShards, EgressTickSource: s.EgressTickSource, ControlAddr: s.ControlAddr,
		FrameCache: CacheStats{Bytes: s.FrameCache.Bytes},
		HubStats:   mcast.HubStats{Memberships: s.Memberships, Vectorized: s.Vectorized, GSO: s.GSO}}
}

// checkDocument holds one plane's document to the server it came from:
// the layout echo matches srv.Status() and describes the server
// statusServer configured, and the traffic counters have moved.
func checkDocument(t *testing.T, srv *Server, plane string, got StatusSnapshot) {
	t.Helper()
	want := layoutEcho(srv.Status())
	if want.Videos != 2 || want.ChannelsPerVideo != 3 || want.UnitMillis != 20 || want.FecGroup != 4 ||
		want.ControlAddr != srv.Addr() || want.Memberships != 1 {
		t.Fatalf("layout echo %+v does not describe the configured server", want)
	}
	if e := layoutEcho(got); !reflect.DeepEqual(e, want) {
		t.Errorf("%s plane echoes %+v, want %+v", plane, e, want)
	}
	if got.FaultsInjected == nil || got.DatagramsSent == 0 || got.ControlSessions < 1 {
		t.Errorf("%s plane: faults %v, %d datagrams, %d control sessions", plane, got.FaultsInjected, got.DatagramsSent, got.ControlSessions)
	}
}

// TestStatsEndpoint: the control plane's KindStatsOK payload is the
// /status document — it decodes, key for key, into a StatusSnapshot and
// agrees with GET /status on every layout echo.
func TestStatsEndpoint(t *testing.T) {
	srv, base, conn, r := statusServer(t)
	overControl := decodeStrict(t, statusOverControl(t, conn, r))
	checkDocument(t, srv, "control", overControl)
	_, doc := httpGet(t, base, "/status")
	if a, b := layoutEcho(overControl), layoutEcho(decodeStrict(t, doc)); !reflect.DeepEqual(a, b) {
		t.Errorf("control plane echoes %+v, /status %+v", a, b)
	}
}

// TestStatusHTTP: the ops-facing HTTP endpoint serves the document at
// /status, answers health checks and 404s, and refuses a ServeStatus
// before Start.
func TestStatusHTTP(t *testing.T) {
	srv, base, _, _ := statusServer(t)
	code, doc := httpGet(t, base, "/status")
	if code != http.StatusOK {
		t.Fatalf("/status answered %d", code)
	}
	checkDocument(t, srv, "http", decodeStrict(t, doc))

	if code, _ := httpGet(t, base, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz status %d", code)
	}
	if code, _ := httpGet(t, base, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d", code)
	}
	raw, err := New(Config{Scheme: wheelScheme(t, 1, 3), Unit: 20 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ServeStatus(); err == nil {
		t.Error("ServeStatus before Start accepted")
	}
}

// harnessKeys are the /status key paths the end-to-end benchmark reads.
// It reads the document as loose JSON, where a missing key is a silent 0,
// so a rename here would zero a per-layer metric without failing anything.
// The harness also reads a storm re-send key for server.storm_resends,
// which this document does not serve: the metric reads the missing key as
// 0, as it did on every workload when the key was served.
var harnessKeys = []string{
	"datagramsSent", "egressWakeups", "frameCache.hits", "frameCache.misses", "frameCache.bytes",
	"pacerDriftEvents", "pacerRestarts", "controlSessionsPeak", "egressSyscalls", "gsoSegments",
	"superframes", "gsoFallbacks", "sendFailures", "membersEvicted", "repairsServed", "nacksServed",
	"nackResends", "busyReplies", "repairDatagrams", "parityFrames",
	"faultsInjected.dropped", "faultsInjected.burstDropped", "faultsInjected.duplicated", "faultsInjected.reordered",
}

// TestStatusKeysHarnessReads: every key path the benchmark harness reads
// is present in the served document, and numeric.
func TestStatusKeysHarnessReads(t *testing.T) {
	_, base, _, _ := statusServer(t)
	_, doc := httpGet(t, base, "/status")
	var loose map[string]any
	if err := json.Unmarshal(doc, &loose); err != nil {
		t.Fatal(err)
	}
	for _, path := range harnessKeys {
		var cur any = loose
		for _, k := range strings.Split(path, ".") {
			m, _ := cur.(map[string]any)
			cur = m[k]
		}
		if _, ok := cur.(float64); !ok {
			t.Errorf("/status %s = %#v, want a number", path, cur)
		}
	}
}

// TestStatusCarriesHubStats: every json key of mcast.HubStats is a
// top-level key of the document on both planes, so a counter added to
// the hub's ledger is served without touching this package.
func TestStatusCarriesHubStats(t *testing.T) {
	_, base, conn, r := statusServer(t)
	_, overHTTP := httpGet(t, base, "/status")
	for plane, doc := range map[string][]byte{"control": statusOverControl(t, conn, r), "http": overHTTP} {
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(doc, &keys); err != nil {
			t.Fatal(err)
		}
		hs := reflect.TypeOf(mcast.HubStats{})
		for i := 0; i < hs.NumField(); i++ {
			key, _, _ := strings.Cut(hs.Field(i).Tag.Get("json"), ",")
			if _, ok := keys[key]; !ok {
				t.Errorf("%s plane: the document lacks HubStats.%s (%q)", plane, hs.Field(i).Name, key)
			}
		}
	}
}

// waitFor polls cond until it holds, failing the test once d has passed:
// a running server is waited on for what it has done, not for how long.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
	}
}
