package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// tailGrid lists the percentiles a tail may be reported at, highest
// first.
var tailGrid = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// beyond is the number of samples strictly above the nearest-rank q
// quantile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest percentile of tailGrid, and no
// higher than top, that has at least ten of n samples beyond it, or 0
// when none has.
func tailQuantile(n int, top float64) float64 {
	for _, q := range tailGrid {
		if q <= top && beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// quantile returns the nearest-rank q quantile of the samples. It sorts
// a copy, so the caller's order is kept.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func nsToUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// digest accumulates a canonical byte encoding of program outputs into
// a SHA-256, so two runs can be compared by one string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
