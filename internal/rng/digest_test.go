package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestNormDigest pins the bits of Norm's draws: a SHA-256 over the IEEE
// bits (little-endian) of the first 100,000 Norm(0, 1) draws of two seeds.
// Every trace's weather and schedule jitter comes from Norm, so a change to
// its arithmetic that moves one bit fails here before it reaches the
// table and fleet goldens.
func TestNormDigest(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "4bddf0fedf582e7616798dfa76c279251cbc7c8c90f811bd223df8b12059e7b0"},
		{20230427, "abf2401f6b469aba5f1cb2cc79a2e338fa362f4c514ff2d8c79d812acb35a632"},
	} {
		r := New(tc.seed)
		h := sha256.New()
		var buf [8]byte
		for range 100_000 {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Norm(0, 1)))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("seed %d: Norm digest %s, want %s", tc.seed, got, tc.want)
		}
	}
}
