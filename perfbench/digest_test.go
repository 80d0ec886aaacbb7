package main

import (
	"testing"

	"cellfi/internal/experiments"
	"cellfi/internal/metro"
	"cellfi/internal/stats"
)

func digestOf(f func(d *digest)) string {
	d := newDigest()
	f(d)
	return d.sum()
}

func TestDigestIsStableAndUnambiguous(t *testing.T) {
	a := digestOf(func(d *digest) { d.str("ab"); d.str("c"); d.float(0.1); d.int(7) })
	b := digestOf(func(d *digest) { d.str("ab"); d.str("c"); d.float(0.1); d.int(7) })
	if a != b {
		t.Fatalf("same inputs gave %s and %s", a, b)
	}
	for name, other := range map[string]string{
		"split moved": digestOf(func(d *digest) { d.str("a"); d.str("bc"); d.float(0.1); d.int(7) }),
		"float ulp":   digestOf(func(d *digest) { d.str("ab"); d.str("c"); d.float(0.1 + 1e-17*2); d.int(7) }),
		"int":         digestOf(func(d *digest) { d.str("ab"); d.str("c"); d.float(0.1); d.int(8) }),
	} {
		if other == a {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

func prachLike(rate, speed, speedNote string) experiments.Result {
	det := &stats.Table{Title: "detection", Headers: []string{"snr", "rate"}}
	det.AddRow("-10", rate)
	timed := &stats.Table{Title: "speed", Headers: []string{"detector", "per preamble", "x line rate"}}
	timed.AddRow("modified", speed, "2.0")
	return experiments.Result{
		ID:     "prach",
		Tables: []*stats.Table{det, timed},
		Series: []stats.Series{{Name: "rate", Points: [][2]float64{{-10, 0.99}}}},
		Notes:  []string{"detection note", "false alarms", speedNote},
	}
}

// The PRACH speed table and note report host time; the digest must not
// see them, and must see everything else.
func TestDigestResultSkipsOnlyHostTimedParts(t *testing.T) {
	sum := func(r experiments.Result) string { return digestOf(func(d *digest) { digestResult(d, r) }) }
	base := sum(prachLike("0.99", "404µs", "runs 2.0x line rate"))
	if got := sum(prachLike("0.99", "367µs", "runs 2.2x line rate")); got != base {
		t.Errorf("host-timed parts changed the digest: %s vs %s", got, base)
	}
	if got := sum(prachLike("0.98", "404µs", "runs 2.0x line rate")); got == base {
		t.Error("a changed detection rate left the digest unchanged")
	}
	r := prachLike("0.99", "404µs", "runs 2.0x line rate")
	r.ID = "fig9a"
	if sum(r) == base {
		t.Error("the experiment ID is not in the digest")
	}
}

// The metro digest covers only quantities the repository promises are
// identical at any shard count.
func TestMetroDigestMatchesAcrossShardCounts(t *testing.T) {
	cfg := metro.DefaultCity(3)
	cfg.NAPs, cfg.NUEs = 60, 3000
	cfg.AreaW, cfg.AreaH = 3000, 1500
	cfg.DayEpochs = 12
	var sums []string
	for _, k := range []int{1, 2} {
		cfg.Shards = k
		w := metro.New(cfg)
		w.Run(cfg.DayEpochs)
		sums = append(sums, metroDigest(w))
		w.Close()
	}
	if sums[0] != sums[1] {
		t.Errorf("digest at 1 shard %s, at 2 shards %s", sums[0], sums[1])
	}
}
