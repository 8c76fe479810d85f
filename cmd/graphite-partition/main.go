// Command graphite-partition cuts a temporal graph into per-shard
// partition files for the cluster's "shard:DIR" graph spec: a full-graph
// copy (full.gsn) for the coordinator plus one induced subgraph
// (part-NNN.gsn) per worker shard. Each partition keeps the complete
// vertex set — so global message addressing and halting bounds stay
// identical to the whole graph — but only the edges touching the shard's
// owned vertices, which is what makes a worker's resident graph O(V/N)
// edge bytes instead of the full edge list.
//
// Usage:
//
//	graphite-partition -in PATH -out DIR -n SHARDS [-v]
//
// -in accepts either graph format internal/tgraph reads (.tg text, .gsn
// snapshot). Placement is the engine's balanced LPT
// partitioner over per-vertex work weights — the same rule a whole-graph
// cluster run computes — and the assignment is embedded in every output
// file, so coordinator and workers adopt one vertex→shard map instead of
// recomputing it from partial graphs.
package main

import (
	"flag"
	"os"

	"graphite/internal/cluster"
	"graphite/internal/obs"
	"graphite/internal/stats"
	"graphite/internal/tgraph"
)

func main() {
	var (
		in      = flag.String("in", "", "input graph file (.tg or .gsn)")
		out     = flag.String("out", "", "output partition directory")
		shards  = flag.Int("n", 0, "number of shards to cut")
		verbose = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-partition", *verbose)
	if *in == "" || *out == "" || *shards <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	m, err := tgraph.OpenAnyFile(*in)
	if err != nil {
		log.Error("open graph", "path", *in, "err", err)
		os.Exit(1)
	}
	defer m.Close()
	infos, err := cluster.WritePartitions(m.Graph, *out, *shards)
	if err != nil {
		log.Error("write partitions", "dir", *out, "err", err)
		os.Exit(1)
	}
	t := stats.Table{Header: []string{"Shard", "File", "Owned|V|", "|V|", "|E|", "Bytes"}}
	for _, pi := range infos {
		shard := any("full")
		if pi.Shard >= 0 {
			shard = pi.Shard
		}
		t.Add(shard, pi.Name, pi.Owned, pi.Vertices, pi.Edges, pi.Bytes)
	}
	t.Render(os.Stdout)
	log.Info("partitioned", "in", *in, "out", *out, "shards", *shards)
}
