package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/mcast"
	"skyscraper/internal/server"
	"skyscraper/internal/vod"
	"skyscraper/internal/wire"
)

// TestQueryStatsPrintsDocument: -stats against an in-process server with
// one joined channel prints the server's status document — the egress
// ledger, the control-session count and the layout echoes — as JSON.
func TestQueryStatsPrintsDocument(t *testing.T) {
	sch, err := core.New(vod.Config{ServerMbps: 1.5 * 3, Videos: 1, LengthMin: 120, RateMbps: 1.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheme: sch, Unit: 20 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	recv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindJoin, Video: 0, Channel: 1, Port: recv.Addr().Port}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadControl(bufio.NewReader(conn)); err != nil || m.Kind != wire.KindJoined {
		t.Fatalf("join: %+v %v", m, err)
	}
	// Wait for the joined channel's first datagram, so the ledger has moved.
	if err := recv.Conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Conn.Read(make([]byte, wire.EncodedSize(1024))); err != nil {
		t.Fatalf("no datagram on the joined channel: %v", err)
	}

	var out bytes.Buffer
	if err := queryStats(&out, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not the JSON document: %v\n%s", err, out.String())
	}
	for _, key := range []string{"datagramsSent", "egressWakeups", "controlSessions",
		"videos", "channelsPerVideo", "width", "sizeUnits", "unitMillis"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("output lacks %q:\n%s", key, out.String())
		}
	}
	if doc["datagramsSent"] == 0.0 || doc["controlSessions"] == 0.0 || doc["memberships"] != 1.0 {
		t.Errorf("datagramsSent %v, controlSessions %v, memberships %v: the ledger did not follow the join",
			doc["datagramsSent"], doc["controlSessions"], doc["memberships"])
	}
	if doc["videos"] != 1.0 || doc["channelsPerVideo"] != 3.0 || doc["unitMillis"] != 20.0 {
		t.Errorf("layout echo videos %v, channelsPerVideo %v, unitMillis %v; want 1, 3, 20",
			doc["videos"], doc["channelsPerVideo"], doc["unitMillis"])
	}
	if !strings.Contains(out.String(), "\n  \"") {
		t.Errorf("output is not indented:\n%s", out.String())
	}
}
