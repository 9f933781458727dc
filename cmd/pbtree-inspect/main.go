// Command pbtree-inspect creates, saves, loads and summarizes
// serialized pB+-Trees (the Tree.WriteTo / pbtree.LoadTree format).
//
// Usage:
//
//	pbtree-inspect -gen 1000000 -width 8 -jump external -out idx.pbt
//	pbtree-inspect -in idx.pbt
//	pbtree-inspect -in idx.pbt -probe 4242
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pbtree"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pbtree-inspect: ")
	var (
		gen   = flag.Int("gen", 0, "generate a tree with N sequential keys and save it")
		width = flag.Int("width", 8, "node width in cache lines (with -gen)")
		jump  = flag.String("jump", "external", "jump-pointer array: none|external|internal (with -gen)")
		fill  = flag.Float64("fill", 1.0, "bulkload factor")
		out   = flag.String("out", "", "output file (with -gen)")
		in    = flag.String("in", "", "serialized tree to load and summarize")
		probe = flag.Uint("probe", 0, "look up this key after loading")
	)
	flag.Parse()

	switch {
	case *gen > 0:
		if *out == "" {
			log.Fatal("-gen requires -out")
		}
		var kind pbtree.JumpArrayKind
		switch *jump {
		case "none":
			kind = pbtree.JumpNone
		case "external":
			kind = pbtree.JumpExternal
		case "internal":
			kind = pbtree.JumpInternal
		default:
			log.Fatalf("unknown jump-pointer kind %q", *jump)
		}
		t, err := pbtree.New(pbtree.Config{
			Width: *width, Prefetch: *width > 1 || kind != pbtree.JumpNone, JumpArray: kind,
		})
		if err != nil {
			log.Fatal(err)
		}
		pairs := make([]pbtree.Pair, *gen)
		for i := range pairs {
			pairs[i] = pbtree.Pair{Key: pbtree.Key(2 * (i + 1)), TID: pbtree.TID(i + 1)}
		}
		if err := t.Bulkload(pairs, *fill); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		n, err := t.WriteTo(f)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d pairs, %d bytes\n", *out, t.Len(), n)

	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		t, err := pbtree.LoadTree(f, nil, *fill)
		if err != nil {
			log.Fatal(err)
		}
		if err := t.CheckInvariants(); err != nil {
			log.Fatalf("structural check failed: %v", err)
		}
		cfg := t.Config()
		fmt.Printf("%s: %d pairs, %d levels, width %d, jump-pointer array %s\n",
			t.Name(), t.Len(), t.Height(), cfg.Width, cfg.JumpArray)
		// SpaceUsed is simulated bytes on this simulated hierarchy; on a
		// native model it is the real ones (a node is one real block).
		fmt.Printf("leaf capacity %d, max fanout %d, %.1f MB simulated, structural check ok\n",
			t.LeafCapacity(), t.MaxFanout(), float64(t.SpaceUsed())/(1<<20))
		if *probe > 0 {
			mem := t.Mem()
			mem.ResetStats()
			tid, ok := t.Search(pbtree.Key(*probe))
			fmt.Printf("probe %d: tid=%d found=%v\n", *probe, tid, ok)
			fmt.Println(mem.Stats().Pretty())
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}
