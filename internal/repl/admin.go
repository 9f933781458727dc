// The replication admin surface: a JSON status document (/replz), the
// promotion endpoint (/promote) and Prometheus lag gauges, mounted on
// the same operational HTTP plane as serve.NewAdminMux (DESIGN.md
// §12). Promotion over HTTP is what the failover runbook drives:
//
//	curl -X POST http://<admin>/promote
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"pbtree/internal/obs"
)

// ShardStatus is one shard's replication position in a Status.
type ShardStatus struct {
	// Applied is the shard's durably applied LSN (its cursor).
	Applied uint64 `json:"applied_lsn"`

	// PrimaryLSN is the primary's last LSN at the most recent FETCH
	// (follower only).
	PrimaryLSN uint64 `json:"primary_lsn,omitempty"`

	// Acked is the highest LSN any follower reported applied (primary
	// only).
	Acked uint64 `json:"acked_lsn,omitempty"`

	// Lag is the shard's replication lag in WAL records: records not
	// yet applied here (follower) or not yet acknowledged by any
	// follower (primary).
	Lag uint64 `json:"lag_records"`
}

// Status is the /replz JSON document.
type Status struct {
	Role     string           `json:"role"`                // "primary", "replica" or "fenced"
	Epoch    uint64           `json:"epoch"`               // the store's replication epoch
	FencedBy uint64           `json:"fenced_by,omitempty"` // highest rival epoch observed
	Primary  string           `json:"primary,omitempty"`   // the primary followed (follower only)
	Sync     bool             `json:"sync"`                // synchronous replication enabled
	Shards   []ShardStatus    `json:"shards"`              // per-shard positions
	Counters map[string]int64 `json:"counters"`            // lifetime replication counters (the registry's pbtree_repl_* cells)
}

// Status reports the node's replication state: role, epoch, per-shard
// cursors and lag, and the replication counters.
func (n *Node) Status() Status {
	s := Status{
		Role:     n.Role().String(),
		Epoch:    n.st.Epoch(),
		FencedBy: n.st.FencedBy(),
		Primary:  n.cfg.Primary,
		Sync:     n.cfg.Sync,
		Counters: n.cfg.Metrics.Values("pbtree_repl_"),
	}
	applied := n.st.AppliedLSNs()
	s.Shards = make([]ShardStatus, len(applied))
	follower := n.st.IsReplica()
	n.gateMu.Lock()
	acked := append([]uint64(nil), n.acked...)
	n.gateMu.Unlock()
	for i, a := range applied {
		sh := ShardStatus{Applied: a}
		if follower {
			sh.PrimaryLSN = n.primaryLSNs[i].Load()
			if sh.PrimaryLSN > a {
				sh.Lag = sh.PrimaryLSN - a
			}
		} else {
			sh.Acked = acked[i]
			if a > sh.Acked {
				sh.Lag = a - sh.Acked
			}
		}
		s.Shards[i] = sh
	}
	return s
}

// Lag reports every shard's replication lag in WAL records (see
// ShardStatus.Lag).
func (n *Node) Lag() []uint64 {
	st := n.Status()
	out := make([]uint64, len(st.Shards))
	for i, sh := range st.Shards {
		out[i] = sh.Lag
	}
	return out
}

// WriteMetrics writes the node's replication gauges in Prometheus
// text format — role, epoch and per-shard lag — complementing the
// counters obs.Metrics.WritePrometheus already exports.
func (n *Node) WriteMetrics(w io.Writer) error {
	s := n.Status()
	role := map[string]float64{"primary": 1, "replica": 2, "fenced": 3}[s.Role]
	lag := make([]obs.Sample, len(s.Shards))
	for i, sh := range s.Shards {
		lag[i] = obs.Sample{Labels: fmt.Sprintf("shard=\"%d\"", i), Value: float64(sh.Lag)}
	}
	return errors.Join(
		obs.WriteFamily(w, "pbtree_repl_epoch", "Replication epoch (monotone fencing token).", "gauge", obs.Sample{Value: float64(s.Epoch)}),
		obs.WriteFamily(w, "pbtree_repl_role", "Replication role (1=primary, 2=replica, 3=fenced).", "gauge", obs.Sample{Value: role}),
		obs.WriteFamily(w, "pbtree_repl_lag_records", "Replication lag per shard in WAL records.", "gauge", lag...),
	)
}

// Mount registers the replication endpoints on an admin mux:
//
//	/replz    GET: the Status JSON document
//	/promote  POST: promote this follower to primary; the optional
//	          ?epoch=N picks the new epoch (default: current+1)
func (n *Node) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/replz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.Status())
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var epoch uint64
		if s := r.URL.Query().Get("epoch"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad epoch: "+err.Error(), http.StatusBadRequest)
				return
			}
			epoch = v
		}
		if err := n.Promote(epoch); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.Status())
	})
}
