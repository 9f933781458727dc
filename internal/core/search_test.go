package core

import (
	"math/rand"
	"sort"
	"testing"

	"pbtree/internal/memsys"
)

// TestCountLessMatchesSort cross-checks the native descent's two-step
// count against sort.Search on hand-built nodes of every occupancy from
// empty through the widest node layout, including duplicate-heavy key
// sets and the 0 / MaxKey sentinels, as a lower bound (a leaf's) and
// as an upper bound (a non-leaf node's). The words past the count are
// zero, the value a count that forgot its mask would take for keys.
func TestCountLessMatchesSort(t *testing.T) {
	tr := MustNew(Config{Width: 16, Prefetch: true, Mem: memsys.DefaultNative()})
	maxW := tr.LeafCapacity()
	r := rand.New(rand.NewSource(41))

	for width := 0; width <= maxW; width++ {
		for trial := 0; trial < 25; trial++ {
			n := tr.view(tr.root) // the tree's lone leaf, filled by hand
			keys := tr.keys(n)
			for i := 0; i < width; i++ {
				switch r.Intn(10) {
				case 0:
					keys[i] = 0
				case 1:
					keys[i] = uint32(MaxKey)
				case 2, 3, 4: // force runs of duplicates
					keys[i] = uint32(r.Intn(4) * 1000)
				default:
					keys[i] = r.Uint32()
				}
			}
			clear(keys[width:])
			sort.Slice(keys[:width], func(i, j int) bool { return keys[i] < keys[j] })
			n.setCount(width)

			probes := []Key{0, 1, MaxKey, MaxKey - 1, Key(r.Uint32())}
			for i := 0; i < width; i++ {
				probes = append(probes, Key(keys[i]), Key(keys[i]-1), Key(keys[i]+1))
			}
			for _, p := range probes {
				got := countLess(n.w, uint64(p))
				want := sort.Search(width, func(i int) bool { return Key(keys[i]) >= p })
				if got != want {
					t.Fatalf("width %d: countLess(%d) = %d, want %d (keys %v)",
						width, p, got, want, keys[:width])
				}
				got = countLess(n.w, uint64(p)+1)
				want = sort.Search(width, func(i int) bool { return Key(keys[i]) > p })
				if got != want {
					t.Fatalf("width %d: countLess(%d+1) = %d, want %d (keys %v)",
						width, p, got, want, keys[:width])
				}
			}
		}
	}
}

// searchOracle verifies one leaf search — searchKeys on a simulated
// tree, the native kernel's leafFind on a native one — against the
// leaf's entries: a hit must return the matching position, a miss a
// valid lower bound.
func searchOracle(t *testing.T, tr *Tree, n node, key Key) {
	t.Helper()
	var ub int
	var found bool
	if tr.sim == nil {
		if ub, found = leafFind(n.w, key); found {
			ub++
		}
	} else {
		ub, found = tr.searchKeys(n, tr.addr(n), key)
	}
	keys := tr.keys(n)[:n.count()]
	lb := sort.Search(len(keys), func(i int) bool { return Key(keys[i]) >= key })
	inLeaf := lb < len(keys) && Key(keys[lb]) == key
	if found != inLeaf {
		t.Fatalf("%s: searchKeys(%d) found=%v, leaf holds it: %v", tr.Name(), key, found, inLeaf)
	}
	if found {
		lb++ // on a hit ub-1 is the match
	}
	if ub != lb {
		t.Fatalf("%s: searchKeys(%d) = %d,%v, want %d (keys %v)", tr.Name(), key, ub, found, lb, keys)
	}
}

// TestSearchKeysPropertyAllLayouts drives randomized insert/delete
// churn through every node width on both memory models — the
// simulated tree's probe-per-key binary search and the native tree's
// two-step count — then probes both on every leaf: present
// keys, their neighbors, the sentinels and the empty tree.
func TestSearchKeysPropertyAllLayouts(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, width := range []int{1, 2, 4, 8, 16} {
		for _, mem := range []memsys.Model{memsys.Default(), memsys.DefaultNative()} {
			tr := MustNew(Config{Width: width, Prefetch: true, Mem: mem})

			// Empty tree: the root leaf has no entries.
			for _, p := range []Key{0, 7, MaxKey} {
				searchOracle(t, tr, tr.view(tr.root), p)
			}

			for op := 0; op < 3000; op++ {
				k := Key(r.Intn(600)) * 3 // dense space: collisions and deletes
				if r.Intn(3) == 0 {
					tr.Delete(k)
				} else {
					tr.Insert(k, TID(k+1))
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("w=%d native=%v: %v", width, tr.sim == nil, err)
			}
			for _, n := range leafViews(tr) {
				probes := []Key{0, MaxKey}
				for _, k := range tr.keys(n)[:n.count()] {
					probes = append(probes, Key(k), Key(k-1), Key(k+1))
				}
				for _, p := range probes {
					searchOracle(t, tr, n, p)
				}
			}
		}
	}
}
