package memsys

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// The two host constants of the paper's cost model (a w-line node
// costs T1 + (w-1)*Tnext), measured the way the tree meets them: 512 B
// blocks scattered over a 512 MiB []uint32, far beyond the LLC and the
// TLB's reach, visited in a random cyclic order so that every step is
// a dependent miss. EXPERIMENTS.md commits the numbers per host.

const (
	hostBlockWords = 128 // one w = 8 node: 8 lines of 16 words
	hostBlocks     = 1 << 20
)

// hostChase lays a random single-cycle permutation (Sattolo) over the
// blocks: word 0 of block i holds the word offset of the next block.
func hostChase(b *testing.B) []uint32 {
	b.Helper()
	next := make([]uint32, hostBlocks)
	for i := range next {
		next[i] = uint32(i)
	}
	r := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	mem := make([]uint32, hostBlocks*hostBlockWords)
	for i, n := range next {
		mem[i*hostBlockWords] = n * hostBlockWords
	}
	return mem
}

var hostSink uint32

// hostWalk follows the chase for steps blocks from word offset at: one
// dependent load per step, nothing to overlap it with.
func hostWalk(mem []uint32, at uint32, steps int) uint32 {
	for i := 0; i < steps; i++ {
		at = mem[at]
	}
	return at
}

// BenchmarkHostT1 is the full miss latency.
func BenchmarkHostT1(b *testing.B) {
	mem := hostChase(b)
	b.ResetTimer()
	hostSink = hostWalk(mem, 0, b.N)
}

// BenchmarkHostTnext is the same chase where each step prefetches the
// block's 512 B and then reads one word of each of its 8 lines: the
// step costs T1 + 7*Tnext, and the extra over BenchmarkHostT1's step,
// measured in the same process, is reported per extra line.
func BenchmarkHostTnext(b *testing.B) {
	mem := hostChase(b)
	const t1Steps = 1 << 21
	t0 := time.Now()
	at, sum := hostWalk(mem, 0, t1Steps), uint32(0)
	t1 := float64(time.Since(t0).Nanoseconds()) / t1Steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := mem[at : at+hostBlockWords : at+hostBlockWords]
		HardwarePrefetchRange(uintptr(unsafe.Pointer(&blk[0])), hostBlockWords*4)
		at = blk[0]
		for w := 16; w < hostBlockWords; w += 16 {
			sum += blk[w]
		}
	}
	hostSink = at + sum
	step := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric((step-t1)/7, "ns/extra-line")
}
