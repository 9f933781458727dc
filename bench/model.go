package main

import (
	"math/rand"
	"sync"

	"pbtree"
)

// ackModel is what one connection knows about the keys it writes: the
// value of every acknowledged write. Each connection writes a key set
// of its own (preloaded key + 1 + slot, so never a preloaded key and
// never another connection's), and never has two writes to one key in
// flight, so the model is exact: after the timed phases every key in it
// must read back as recorded.
type ackModel struct {
	mu      sync.Mutex
	slot    int                       // which of the 7 keys between two preloaded keys is ours
	n       int                       // preloaded key count
	val     map[pbtree.Key]pbtree.TID // acked value; 0 = acked delete
	busy    map[pbtree.Key]bool       // a write is in flight
	unknown map[pbtree.Key]bool       // a write failed: outcome not known
	put     []pbtree.Key              // every key ever acked as put
}

func newAckModel(slot, n int) *ackModel {
	return &ackModel{
		slot: slot % 7, n: n,
		val: map[pbtree.Key]pbtree.TID{}, busy: map[pbtree.Key]bool{}, unknown: map[pbtree.Key]bool{},
	}
}

// freshKey draws one of this connection's keys with no write in flight
// and marks it busy. Callers hold mu.
func (m *ackModel) freshKey(r *rand.Rand) pbtree.Key {
	for {
		k := keyOf(1+r.Intn(m.n)) + pbtree.Key(1+m.slot)
		if !m.busy[k] {
			m.busy[k] = true
			return k
		}
	}
}

// reservePut picks count distinct keys and new non-zero values.
func (m *ackModel) reservePut(r *rand.Rand, count int) []pbtree.Pair {
	m.mu.Lock()
	defer m.mu.Unlock()
	pairs := make([]pbtree.Pair, count)
	for i := range pairs {
		pairs[i] = pbtree.Pair{Key: m.freshKey(r), TID: pbtree.TID(r.Uint32() | 1)}
	}
	return pairs
}

// reserveDel picks a key to delete: one that was put before when there
// is an idle one, else any of the connection's keys (deleting an
// absent key is a valid, successful operation).
func (m *ackModel) reserveDel(r *rand.Rand) pbtree.Key {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.put) > 0 {
		if k := m.put[r.Intn(len(m.put))]; !m.busy[k] {
			m.busy[k] = true
			return k
		}
	}
	return m.freshKey(r)
}

// ackPut records an acknowledged put.
func (m *ackModel) ackPut(pairs []pbtree.Pair) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range pairs {
		if _, seen := m.val[p.Key]; !seen {
			m.put = append(m.put, p.Key)
		}
		m.val[p.Key] = p.TID
		delete(m.busy, p.Key)
	}
}

// ackDel records an acknowledged delete.
func (m *ackModel) ackDel(k pbtree.Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, seen := m.val[k]; seen {
		m.val[k] = 0
	}
	delete(m.busy, k)
}

// fail records a write whose outcome is unknown: its keys leave the
// model's checked set.
func (m *ackModel) fail(keys []pbtree.Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		m.unknown[k] = true
		delete(m.busy, k)
	}
}

// expected lists every key whose value is known, with that value
// (0 = must be absent), in the order the keys were first put.
func (m *ackModel) expected() ([]pbtree.Key, []pbtree.TID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]pbtree.Key, 0, len(m.put))
	want := make([]pbtree.TID, 0, len(m.put))
	for _, k := range m.put {
		if m.unknown[k] || m.busy[k] {
			continue
		}
		keys = append(keys, k)
		want = append(want, m.val[k])
	}
	return keys, want
}
