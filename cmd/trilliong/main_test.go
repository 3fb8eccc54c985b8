package main

import (
	"testing"

	trilliong "repro"
)

func TestParseSeed(t *testing.T) {
	s, err := parseSeed("0.57,0.19,0.19,0.05")
	if err != nil {
		t.Fatal(err)
	}
	if s.A != 0.57 || s.B != 0.19 || s.C != 0.19 || s.D != 0.05 {
		t.Fatalf("seed %+v", s)
	}
	if _, err := parseSeed(" 0.25 , 0.25 ,0.25, 0.25 "); err != nil {
		t.Fatalf("whitespace not tolerated: %v", err)
	}
	for _, bad := range []string{"", "1,2,3", "a,b,c,d", "0.5,0.5,0.5,0.5", "0.9,0.05,0.04,0.02,0"} {
		if _, err := parseSeed(bad); err == nil {
			t.Fatalf("parseSeed(%q) accepted", bad)
		}
	}
}

func TestPickSampler(t *testing.T) {
	cases := []struct {
		name   string
		hiprec bool
		want   trilliong.Sampler
	}{
		{"", false, trilliong.SamplerChunk},
		{"", true, trilliong.SamplerRecVec},
		{"recvec", false, trilliong.SamplerRecVec},
		{"chunk", false, trilliong.SamplerChunk},
		{"chunk", true, trilliong.SamplerChunk}, // Validate rejects the pair
	}
	for _, c := range cases {
		if got, err := pickSampler(c.name, c.hiprec); err != nil || got != c.want {
			t.Errorf("pickSampler(%q, %v) = %v, %v; want %v", c.name, c.hiprec, got, err, c.want)
		}
	}
	if _, err := pickSampler("descent", false); err == nil {
		t.Error("unknown sampler accepted")
	}
}
