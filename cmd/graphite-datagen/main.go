// Command graphite-datagen generates the synthetic temporal graph datasets
// (the six Table 1 profiles and the LDBC-like weak-scaling graphs) in the
// text or snapshot format internal/tgraph reads, and prints their
// characteristics.
//
// Usage:
//
//	graphite-datagen -out DIR [-scale S] [-seed N] [-format text|snapshot]
//	                 [-partitions N] [-v] [profile...]
//
// With -partitions N each profile is additionally cut into an N-shard
// partition directory DIR/NAME.parts (full.gsn + part-NNN.gsn, the layout
// graphite-partition produces), resolvable by the cluster's "shard:DIR"
// graph spec.
package main

import (
	"flag"
	"os"
	"path/filepath"

	"graphite/internal/cluster"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/stats"
	"graphite/internal/tgraph"
)

func main() {
	var (
		out        = flag.String("out", "", "output directory (empty: print characteristics only)")
		scale      = flag.Float64("scale", 1.0, "dataset scale factor")
		seed       = flag.Int64("seed", 42, "generator seed")
		format     = flag.String("format", "text", "output format: text or snapshot (mmap-able)")
		partitions = flag.Int("partitions", 0, "also cut each profile into this many shard partitions under DIR/NAME.parts")
		verbose    = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-datagen", *verbose)
	// Validate the format before generating: a typo here must not cost the
	// run and leave text files behind.
	write, ext := tgraph.WriteFile, ".tg"
	switch *format {
	case "text":
	case "snapshot":
		write, ext = tgraph.WriteSnapshotFile, ".gsn"
	default:
		log.Error("unknown -format (want text or snapshot)", "format", *format)
		os.Exit(2)
	}

	profiles := gen.AllProfiles(gen.Scale(*scale))
	if flag.NArg() > 0 {
		byName := map[string]gen.Profile{}
		for _, p := range profiles {
			byName[p.Name] = p
		}
		profiles = nil
		for _, name := range flag.Args() {
			p, ok := byName[name]
			if !ok {
				log.Error("unknown profile", "profile", name)
				os.Exit(2)
			}
			profiles = append(profiles, p)
		}
	}

	t := stats.Table{Header: []string{
		"Graph", "#Snaps", "|V|", "|E|", "Snap|V|", "Snap|E|", "Trans|V|", "Trans|E|",
		"LifeV", "LifeE", "LifeProp", "File",
	}}
	for _, p := range profiles {
		log.Debug("generating", "profile", p.Name, "scale", *scale)
		g, err := gen.Generate(p, *seed)
		if err != nil {
			log.Error("generate profile", "profile", p.Name, "err", err)
			os.Exit(1)
		}
		file := "-"
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				log.Error("create output dir", "dir", *out, "err", err)
				os.Exit(1)
			}
			file = filepath.Join(*out, p.Name+ext)
			if err := write(file, g); err != nil {
				log.Error("write graph", "path", file, "err", err)
				os.Exit(1)
			}
			log.Debug("profile written", "profile", p.Name, "path", file)
			if *partitions > 0 {
				dir := filepath.Join(*out, p.Name+".parts")
				infos, err := cluster.WritePartitions(g, dir, *partitions)
				if err != nil {
					log.Error("partition graph", "profile", p.Name, "err", err)
					os.Exit(1)
				}
				for _, pi := range infos {
					log.Debug("partition written", "profile", p.Name, "shard", pi.Shard,
						"owned", pi.Owned, "edges", pi.Edges, "bytes", pi.Bytes)
				}
			}
		}
		c := g.ComputeCharacteristics()
		t.Add(p.Name, c.Snapshots, c.IntervalV, c.IntervalE, c.LargestSnapV, c.LargestSnapE,
			c.TransformedV, c.TransformedE, c.AvgVertexLife, c.AvgEdgeLife, c.AvgPropLife, file)
	}
	t.Render(os.Stdout)
}
