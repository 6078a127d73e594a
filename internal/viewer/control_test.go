package viewer

import (
	"bufio"
	"net"
	"testing"

	"skyscraper/internal/wire"
)

// TestNackRejectsMismatchedEcho: a KindNackOK for another (video,
// channel, seq) is an error, not an acceptance — the cohort then
// escalates the chunks, as on any NACK failure, instead of re-listening
// for re-sends that are not coming. A matching echo yields its bitmap.
func TestNackRejectsMismatchedEcho(t *testing.T) {
	for _, tc := range []struct {
		name           string
		video, channel int
		seq            uint32
		wantErr        bool
	}{
		{"matching", 1, 2, 7, false},
		{"other video", 0, 2, 7, true},
		{"other channel", 1, 3, 7, true},
		{"other repetition", 1, 2, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			// The scripted peer answers one NACK, accepting chunk 3 only,
			// under the case's (video, channel, seq).
			go func() {
				req, err := wire.ReadControl(bufio.NewReader(server))
				if err != nil || req.Nack == nil {
					return
				}
				echo := &wire.Nack{Video: tc.video, Channel: tc.channel, Seq: tc.seq,
					BaseChunk: req.Nack.BaseChunk, Bitmap: make([]byte, len(req.Nack.Bitmap))}
				echo.Set(3)
				_ = wire.WriteControl(server, &wire.Control{Kind: wire.KindNackOK, Nack: echo})
			}()
			cc := &controlConn{mux: &Mux{cfg: MuxConfig{Logf: t.Logf}}, conn: client, r: bufio.NewReader(client), dialed: true}
			accepted, err := cc.nack(1, 2, 7, []int{3, 5})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("echo %d/%d seq %d for a NACK of 1/2 seq 7 accepted", tc.video, tc.channel, tc.seq)
				}
				return
			}
			if err != nil {
				t.Fatalf("matching echo rejected: %v", err)
			}
			if !accepted(3) || accepted(5) {
				t.Errorf("accepted(3)=%v accepted(5)=%v, want true, false", accepted(3), accepted(5))
			}
		})
	}
}
