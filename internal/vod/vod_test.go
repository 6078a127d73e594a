package vod

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(320)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Videos != 10 || c.LengthMin != 120 || c.RateMbps != 1.5 {
		t.Errorf("DefaultConfig = %+v, want the paper's Section 5 workload", c)
	}
	if c.Channels() != 213 {
		t.Errorf("Channels = %d, want 213", c.Channels())
	}
	if c.ChannelsPerVideo() != 21 {
		t.Errorf("ChannelsPerVideo = %d, want 21", c.ChannelsPerVideo())
	}
	if got := c.VideoMbits(); math.Abs(got-10800) > 1e-9 {
		t.Errorf("VideoMbits = %v, want 10800", got)
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Config{
		{},
		{ServerMbps: -1, Videos: 10, LengthMin: 120, RateMbps: 1.5},
		{ServerMbps: 300, Videos: 0, LengthMin: 120, RateMbps: 1.5},
		{ServerMbps: 300, Videos: 10, LengthMin: -5, RateMbps: 1.5},
		{ServerMbps: 300, Videos: 10, LengthMin: 120, RateMbps: 0},
		{ServerMbps: 10, Videos: 10, LengthMin: 120, RateMbps: 1.5}, // K = 0
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	if MbitToMByte(800) != 100 {
		t.Error("MbitToMByte wrong")
	}
	if MbpsToMBps(12) != 1.5 {
		t.Error("MbpsToMBps wrong")
	}
}

func TestChannelsPerVideoProperty(t *testing.T) {
	f := func(bTenth uint16, m uint8) bool {
		c := Config{
			ServerMbps: float64(bTenth%6000)/10 + 15,
			Videos:     int(m%20) + 1,
			LengthMin:  120,
			RateMbps:   1.5,
		}
		k := c.ChannelsPerVideo()
		// K channels per video must fit within the budget, and K+1 must
		// not.
		fits := float64(k*c.Videos)*c.RateMbps <= c.ServerMbps
		tight := float64((k+1)*c.Videos)*c.RateMbps > c.ServerMbps
		return fits && tight
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValidateRejectsNonFinite: NaN and +Inf compare false against 0, so a
// sign test alone lets them through; every float parameter must be finite.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []Config{
		{ServerMbps: nan, Videos: 10, LengthMin: 120, RateMbps: 1.5},
		{ServerMbps: inf, Videos: 10, LengthMin: 120, RateMbps: 1.5},
		{ServerMbps: 320, Videos: 10, LengthMin: nan, RateMbps: 1.5},
		{ServerMbps: 320, Videos: 10, LengthMin: inf, RateMbps: 1.5},
		{ServerMbps: 320, Videos: 10, LengthMin: 120, RateMbps: nan},
		{ServerMbps: 320, Videos: 10, LengthMin: 120, RateMbps: inf},
		{ServerMbps: -inf, Videos: 10, LengthMin: 120, RateMbps: 1.5},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestFirstAtOrAfter(t *testing.T) {
	cases := []struct {
		t, period, offset, want float64
	}{
		{0, 5, 0, 0},
		{0.1, 5, 0, 5},
		{5, 5, 0, 5},
		{4.9, 5, 3, 8},
		{2, 5, 3, 3},
	}
	for _, c := range cases {
		if got := FirstAtOrAfter(c.t, c.period, c.offset); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("FirstAtOrAfter(%v, %v, %v) = %v, want %v", c.t, c.period, c.offset, got, c.want)
		}
	}
}
