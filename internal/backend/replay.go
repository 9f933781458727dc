package backend

import "pbtree/internal/core"

// replayLog is the WAL tail a recovering PBTree replays, kept for Seal
// to apply in one sort-merge: the tail can be as large as the image,
// and a sort of the log plus one pass over the image costs less than a
// tree insert per operation. Operation i puts the pair words[i] =
// key<<32 | tid, or,
// when dels[i] is set, deletes its key. Sorting by key keeps each
// key's operations in log order, so the last one per key is what
// applying the records in LSN order leaves, puts before deletes within
// a record as applyWrite does them.
type replayLog struct {
	words []uint64
	dels  []bool
}

// add logs one record's puts, then its deletes.
func (l *replayLog) add(w Write) {
	for _, p := range w.Puts {
		l.words = append(l.words, uint64(p.Key)<<32|uint64(p.TID))
		l.dels = append(l.dels, false)
	}
	for _, k := range w.Dels {
		l.words = append(l.words, uint64(k)<<32)
		l.dels = append(l.dels, true)
	}
}

// merge returns base (sorted by key, unique) with the logged
// operations applied in log order: the last operation on a key puts
// its pair or removes it, whatever came before.
func (l *replayLog) merge(base []core.Pair) []core.Pair {
	if len(l.words) == 0 {
		return base
	}
	words, dels := l.sort()
	out := make([]core.Pair, 0, len(base)+len(words))
	i := 0
	for j := 0; j < len(words); j++ {
		k := core.Key(words[j] >> 32)
		for j+1 < len(words) && core.Key(words[j+1]>>32) == k {
			j++ // a later operation on the same key wins
		}
		e := i
		for e < len(base) && base[e].Key < k {
			e++
		}
		out = append(out, base[i:e]...)
		if i = e; i < len(base) && base[i].Key == k {
			i++
		}
		if !dels[j] {
			out = append(out, core.Pair{Key: k, TID: core.TID(words[j])})
		}
	}
	return append(out, base[i:]...)
}

// sort orders the log by key and keeps the operations of one key in
// log order: a least-significant-digit radix sort, eleven bits of the
// key a pass, that moves each word with its delete flag and skips a
// pass whose digit every word shares. It returns the sorted log, in
// l's arrays or in scratch ones.
func (l *replayLog) sort() ([]uint64, []bool) {
	const bits, mask = 11, 1<<11 - 1
	var at [3][1 << bits]int
	for _, w := range l.words {
		at[0][w>>32&mask]++
		at[1][w>>(32+bits)&mask]++
		at[2][w>>(32+2*bits)]++
	}
	words, dels := l.words, l.dels
	var tw []uint64
	var td []bool
	for d := range at {
		shift, at := 32+bits*d, &at[d]
		if at[words[0]>>shift&mask] == len(words) {
			continue
		}
		if tw == nil {
			tw, td = make([]uint64, len(words)), make([]bool, len(words))
		}
		sum := 0
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for i, w := range words {
			b := w >> shift & mask
			tw[at[b]], td[at[b]] = w, dels[i]
			at[b]++
		}
		words, tw, dels, td = tw, words, td, dels
	}
	return words, dels
}
