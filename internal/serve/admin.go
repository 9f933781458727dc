package serve

// The admin HTTP plane (DESIGN.md §12). The serving protocol is a
// custom binary framing with no HTTP listener, so the Prometheus and
// pprof surfaces mount on a separate address (pbtree-server -admin):
// operational endpoints only, never the data path.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"

	"pbtree/internal/obs"
)

// NewAdminMux builds the admin-plane HTTP handler:
//
//	/metrics     Prometheus text exposition — the server's registry
//	             (obs.Metrics: histograms plus the counter table) and
//	             the store's per-shard gauges
//	/healthz     200 once every shard has published its first snapshot,
//	             503 while any shard is still recovering
//	/statsz      the STATS payload as JSON (same shape as the wire op,
//	             read from the same cells as /metrics)
//	/debug/pprof the standard runtime profiles
//
// srv may be nil (store-only deployments lose /statsz, answered 404).
// extra writers are appended to the /metrics exposition — the
// replication node contributes its lag gauges this way. The handler
// is safe to serve concurrently with the data path: every endpoint
// reads lock-free snapshots and none blocks on a recovering shard.
func NewAdminMux(srv *Server, st *Store, extra ...func(io.Writer) error) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var m *obs.Metrics
		if srv != nil {
			m = srv.cfg.Metrics
		} else if st != nil {
			m = st.cfg.Metrics
		}
		if m != nil {
			if err := m.WritePrometheus(w); err != nil {
				return
			}
		}
		if st != nil {
			_ = st.WriteMetrics(w)
		}
		for _, f := range extra {
			if f != nil {
				_ = f(w)
			}
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if st != nil && !st.Ready() {
			http.Error(w, "recovering", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		if srv == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(srv.Stats())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
