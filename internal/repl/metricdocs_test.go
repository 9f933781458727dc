package repl

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"pbtree/internal/obs"
	"pbtree/internal/serve"
)

// parentFamilies is what /metrics exposed before the shard and
// replication gauges moved onto obs.WriteFamily (the registry's own
// families are pinned by internal/obs): nothing may disappear.
var parentFamilies = []string{
	"pbtree_shard_ready", "pbtree_shard_queue_depth", "pbtree_shard_snapshot_age_seconds",
	"pbtree_shard_wal_backlog_records", "pbtree_shard_keys", "pbtree_shard_runs",
	"pbtree_repl_epoch", "pbtree_repl_role", "pbtree_repl_lag_records",
}

// TestMetricFamiliesDocumented composes the three producers of
// /metrics — the registry, the store's shard gauges (lsm, so the run
// gauge is there) and the replication node's lag gauges — and holds
// the exposition against the docs: every pbtree_* family README.md or
// DESIGN.md names must exist, and every family that exists must be in
// DESIGN.md's metric reference. `make docs-check` runs it.
func TestMetricFamiliesDocumented(t *testing.T) {
	p := newPrimary(t, serve.BackendLSM, seedPairs(8), false, 0)
	defer p.close()
	srv := serve.NewServer(p.st, serve.ServerConfig{Addr: "127.0.0.1:0", Metrics: obs.NewMetrics()})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	rec := httptest.NewRecorder()
	serve.NewAdminMux(srv, p.st, p.node.WriteMetrics).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	families := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if families[f[2]] {
				t.Errorf("family %s is declared twice in /metrics", f[2])
			}
			families[f[2]] = true
		}
	}
	for _, family := range parentFamilies {
		if !families[family] {
			t.Errorf("family %s disappeared from /metrics", family)
		}
	}

	// A doc may name a family, one of a histogram's series, or a
	// family prefix ending in "_" (written `pbtree_repl_*`).
	named := func(file string) map[string]bool {
		text, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, tok := range regexp.MustCompile(`pbtree_[a-z_]+`).FindAllString(string(text), -1) {
			out[tok] = true
		}
		return out
	}
	exists := func(tok string) bool {
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if families[strings.TrimSuffix(tok, suffix)] {
				return true
			}
		}
		for family := range families {
			if strings.HasSuffix(tok, "_") && strings.HasPrefix(family, tok) {
				return true
			}
		}
		return false
	}
	design := named("DESIGN.md")
	for _, file := range []string{"README.md", "DESIGN.md"} {
		for tok := range named(file) {
			if !exists(tok) {
				t.Errorf("%s names %s, which /metrics does not expose", file, tok)
			}
		}
	}
	for family := range families {
		if !design[family] {
			t.Errorf("/metrics exposes %s, which DESIGN.md's metric reference does not list", family)
		}
	}
}
