package workload

import (
	"fmt"
	"math/rand"

	"pbtree/internal/core"
)

// Skewed request streams for the serving layer. The paper's
// experiments draw keys uniformly; production read traffic is usually
// heavily skewed, which changes what the caches (real or simulated)
// see. The Zipfian model is the one skew provided: key popularity
// follows a Zipf(s, v) law over a fixed random permutation of the key
// space, the YCSB-style model. It is deterministic for a fixed seed and
// emits keys that exist in a SortedPairs(n) tree.
//
// KeyStream is the common shape; NewUniformKeys adapts the existing
// uniform draw to it so load generators can switch models with a flag.

// KeyStream produces an endless stream of index keys.
type KeyStream interface {
	// Next returns the next key of the stream.
	Next() core.Key
}

// uniformKeys draws uniformly from the n existing keys.
type uniformKeys struct {
	r *rand.Rand
	n int
}

// NewUniformKeys returns a stream of uniformly random existing keys of
// a SortedPairs(n) tree.
func NewUniformKeys(r *rand.Rand, n int) KeyStream {
	return &uniformKeys{r: r, n: n}
}

func (u *uniformKeys) Next() core.Key { return ExistingKey(u.r, u.n) }

// zipfKeys draws ranks from a Zipf law and maps rank to key through a
// fixed permutation, so the hot keys are scattered across the key
// space (and hence across serving shards) instead of clustering at the
// low end.
type zipfKeys struct {
	z    *rand.Zipf
	perm []int32
}

// NewZipfKeys returns a Zipfian stream over the n existing keys of a
// SortedPairs(n) tree: rank i is requested with probability
// proportional to 1/(v+i)^s. s must be > 1 and v >= 1 (the contract of
// rand.Zipf); s around 1.01-1.3 covers realistic web skew. The stream
// is fully determined by r's seed.
func NewZipfKeys(r *rand.Rand, n int, s, v float64) (KeyStream, error) {
	if s <= 1 || v < 1 {
		return nil, fmt.Errorf("workload: zipf needs s > 1 and v >= 1, got s=%v v=%v", s, v)
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: zipf needs at least one key")
	}
	z := rand.NewZipf(r, s, v, uint64(n-1))
	perm := make([]int32, n)
	for i, p := range r.Perm(n) {
		perm[i] = int32(p)
	}
	return &zipfKeys{z: z, perm: perm}, nil
}

func (z *zipfKeys) Next() core.Key {
	rank := z.z.Uint64()
	return core.Key(keySpacing * (int(z.perm[rank]) + 1))
}
