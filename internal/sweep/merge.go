package sweep

import (
	"bufio"
	"fmt"
	"os"
	"slices"

	"repro/internal/core"
)

// Merge recombines the checkpoints of a sharded campaign into the Results
// an uninterrupted single-process Run would have produced. Every path must
// be a completed shard checkpoint of the same campaign: the metas must
// agree pairwise on everything but the shard index, the shard indexes must
// cover 0..ShardCount-1 exactly once, every record must belong to the
// shard whose file holds it, and together the shards must cover the whole
// task grid. The merged Records come back in canonical grid order, so
// report, CSV and crossover rendering from merged results are
// byte-identical to the single-process run.
//
// When out is non-empty, the merged campaign is also written there as a
// single unsharded checkpoint (shard 0/1, records in canonical order),
// which a later Run with the same options can -resume from directly.
func Merge(out string, paths []string) (*Results, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sweep: merge: no shard checkpoints given")
	}
	var (
		base    Meta           // paths[0]'s meta with shard index 0, which every shard's must match
		g       [][]string     // the task grid base describes
		index   gridIndex      // of g
		records []Record       // by grid index; one with no Kernel is not placed yet
		placed  int            // records placed
		byShard map[int]string // shard index -> the path covering it
	)
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("sweep: merge: %w", err)
		}
		shard := -1
		err = scanCheckpoint(f, func(m Meta) error {
			shard, m.ShardIndex = m.ShardIndex, 0
			if i == 0 {
				base, byShard = m, map[int]string{}
			}
			if m != base {
				return fmt.Errorf("meta mismatch with %s: written with different sweep options (%s)", paths[0], base.Diff(m))
			}
			// Shard indexes must be 0..ShardCount-1, each exactly once.
			if shard < 0 || shard >= base.ShardCount {
				return fmt.Errorf("shard index %d out of range for %d shards", shard, base.ShardCount)
			}
			if prev, dup := byShard[shard]; dup {
				return fmt.Errorf("overlapping shards: %s also covers shard %d/%d", prev, shard, base.ShardCount)
			}
			byShard[shard] = path
			if i > 0 {
				return nil
			}
			// A hand-edited meta's bad axis value is named, as Options
			// validation names it, not reported as records off the grid.
			g = base.grid()
			for d, a := range Axes {
				if err := a.check(g[3+d]); err != nil {
					return err
				}
			}
			if slices.ContainsFunc(g, func(dim []string) bool { return len(dim) == 0 }) {
				return fmt.Errorf("meta does not describe a task grid")
			}
			var dup string
			if index, dup = newGridIndex(g); dup != "" {
				// Only a hand-edited meta claims one; Run refuses to write it.
				return fmt.Errorf("duplicate grid entry %s: its tasks would share keys", dup)
			}
			n := 1
			for _, dim := range g {
				n *= len(dim)
			}
			records = make([]Record, n)
			return nil
		}, func(rec Record) error {
			if shard < 0 {
				return fmt.Errorf("no meta header")
			}
			gi, ok := index.of(rec)
			if !ok {
				return fmt.Errorf("record %s is not in the campaign grid", rec.Key())
			}
			if gi%base.ShardCount != shard {
				return fmt.Errorf("record %s belongs to shard %d/%d, not to this shard %d",
					rec.Key(), gi%base.ShardCount, base.ShardCount, shard)
			}
			if records[gi].Kernel == "" {
				placed++
			}
			records[gi] = rec // a later duplicate overwrites an earlier one
			return nil
		})
		f.Close()
		if err == nil && shard < 0 {
			err = fmt.Errorf("no meta header")
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: merge: %s: %w", path, err)
		}
	}
	for s := 0; s < base.ShardCount; s++ {
		if _, ok := byShard[s]; !ok {
			return nil, fmt.Errorf("sweep: merge: missing shard %d/%d: grid not covered", s, base.ShardCount)
		}
	}
	if placed < len(records) {
		first := slices.IndexFunc(records, func(r Record) bool { return r.Kernel == "" })
		return nil, fmt.Errorf("sweep: merge: grid not covered: %d of %d tasks missing (first: %s)",
			len(records)-placed, len(records), taskKey(cell(g, first)))
	}
	res := &Results{Options: optionsFromMeta(base, g), Records: records}
	if out != "" {
		if err := WriteCheckpoint(out, base, res.Records); err != nil {
			return nil, fmt.Errorf("sweep: merge: %w", err)
		}
	}
	return res, nil
}

// optionsFromMeta reconstructs the sweep parameters recorded in a merged
// checkpoint meta, whose grid g Merge has checked, for reporting. Mappers
// are left nil: the render paths only read Records, which carry each
// mapper's name (core.ParseMapper turns a paper mapper's name back into the
// mapper). Unparseable config names are skipped (they cannot occur in a
// meta Run wrote).
func optionsFromMeta(m Meta, g [][]string) Options {
	opts := Options{
		Kernels:          g[1],
		Axes:             map[string][]string{},
		Scale:            m.Scale,
		Seed:             m.Seed,
		Verify:           m.Verify,
		DispatchOverhead: m.DispatchOverhead,
		NoCoalesce:       m.NoCoalesce,
	}
	for _, name := range g[0] {
		if hw, err := core.ParseName(name); err == nil {
			opts.Configs = append(opts.Configs, hw)
		}
	}
	for i, a := range Axes {
		opts.Axes[a.Name] = g[3+i]
	}
	return opts
}

// WriteCheckpoint writes records as a single unsharded checkpoint file:
// the given meta with shard 0/1, then every record in the order given
// (canonical grid order for Merge and the campaign service) — exactly the
// file a single-process Workers=1 checkpointed Run would have produced.
func WriteCheckpoint(path string, meta Meta, records []Record) error {
	meta.ShardIndex, meta.ShardCount = 0, 1
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	c := &CheckpointWriter{f: f, w: bufio.NewWriterSize(f, 64<<10)}
	err = writeMetaLine(c.w, meta)
	for i := 0; err == nil && i < len(records); i++ {
		err = writeRecordLine(c.w, records[i])
	}
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return err
}
