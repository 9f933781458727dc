package workload

import (
	"math/rand"
	"testing"

	"pbtree/internal/core"
)

// drawn pulls cnt keys from a stream.
func drawn(s KeyStream, cnt int) []core.Key {
	out := make([]core.Key, cnt)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// TestSkewDeterminism: the same seed must reproduce the same stream,
// key for key, for every generator — the reproducibility contract all
// workload generation in this repo follows.
func TestSkewDeterminism(t *testing.T) {
	const n, cnt = 10_000, 5_000
	mk := map[string]func(seed int64) KeyStream{
		"uniform": func(seed int64) KeyStream {
			return NewUniformKeys(rand.New(rand.NewSource(seed)), n)
		},
		"zipf": func(seed int64) KeyStream {
			z, err := NewZipfKeys(rand.New(rand.NewSource(seed)), n, 1.1, 1)
			if err != nil {
				t.Fatal(err)
			}
			return z
		},
	}
	for name, f := range mk {
		a := drawn(f(42), cnt)
		b := drawn(f(42), cnt)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at draw %d: %d vs %d", name, i, a[i], b[i])
			}
		}
		c := drawn(f(43), cnt)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == cnt {
			t.Fatalf("%s: different seeds produced identical streams", name)
		}
	}
}

// TestSkewKeysExist: every generated key must be present in a
// SortedPairs(n) tree (a multiple of the key spacing within range).
func TestSkewKeysExist(t *testing.T) {
	const n = 1000
	r := rand.New(rand.NewSource(1))
	z, _ := NewZipfKeys(rand.New(rand.NewSource(2)), n, 1.2, 1)
	for _, s := range []KeyStream{NewUniformKeys(r, n), z} {
		for i := 0; i < 10_000; i++ {
			k := s.Next()
			if k == 0 || uint32(k)%keySpacing != 0 || int(k) > keySpacing*n {
				t.Fatalf("generated key %d outside SortedPairs(%d)", k, n)
			}
		}
	}
}

// TestSkewIsSkewed: the Zipfian generator must actually concentrate
// traffic — its most popular key should receive far more than the
// uniform share of requests.
func TestSkewIsSkewed(t *testing.T) {
	const n, cnt = 10_000, 200_000
	top := func(s KeyStream) int {
		freq := map[core.Key]int{}
		for i := 0; i < cnt; i++ {
			freq[s.Next()]++
		}
		best := 0
		for _, c := range freq {
			if c > best {
				best = c
			}
		}
		return best
	}
	uniformShare := cnt / n // ~20 requests per key
	z, _ := NewZipfKeys(rand.New(rand.NewSource(7)), n, 1.1, 1)
	if best := top(z); best < 20*uniformShare {
		t.Fatalf("zipf top key got %d requests, want >= %d", best, 20*uniformShare)
	}
	// Invalid parameters are rejected.
	if _, err := NewZipfKeys(rand.New(rand.NewSource(1)), n, 0.9, 1); err == nil {
		t.Fatal("zipf accepted s <= 1")
	}
}
