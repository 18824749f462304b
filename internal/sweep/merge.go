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
	metas := make([]Meta, len(paths))
	shards := make([]map[string]Record, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("sweep: merge: %w", err)
		}
		meta, recs, err := ReadCheckpoint(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("sweep: merge: %s: %w", path, err)
		}
		if meta == nil {
			return nil, fmt.Errorf("sweep: merge: %s has no meta header", path)
		}
		metas[i] = *meta
		shards[i] = recs
	}

	// Pairwise meta agreement, modulo the shard index. A grid-axis
	// disagreement gets its own diagnostic naming the axis: mixing shards
	// of campaigns that swept different policy sets is the likeliest way to
	// end up here.
	base := metas[0]
	base.ShardIndex = 0
	for i := 1; i < len(metas); i++ {
		m := metas[i]
		m.ShardIndex = 0
		for _, a := range Axes {
			if want, got := *a.meta(&base), *a.meta(&m); got != want {
				return nil, fmt.Errorf("sweep: merge: mixed-%s shard set: %s sweeps %s=%q but %s sweeps %q",
					a.Name, paths[0], a.Name, want, paths[i], got)
			}
		}
		if m != base {
			return nil, fmt.Errorf("sweep: merge: meta mismatch: %s and %s were written with different sweep options",
				paths[0], paths[i])
		}
	}

	// Shard indexes must be 0..ShardCount-1, each exactly once.
	count := base.ShardCount
	byIndex := make(map[int]string, len(paths))
	for i, m := range metas {
		if m.ShardIndex < 0 || m.ShardIndex >= count {
			return nil, fmt.Errorf("sweep: merge: %s: shard index %d out of range for %d shards",
				paths[i], m.ShardIndex, count)
		}
		if prev, dup := byIndex[m.ShardIndex]; dup {
			return nil, fmt.Errorf("sweep: merge: overlapping shards: %s and %s both cover shard %d/%d",
				prev, paths[i], m.ShardIndex, count)
		}
		byIndex[m.ShardIndex] = paths[i]
	}
	for s := 0; s < count; s++ {
		if _, ok := byIndex[s]; !ok {
			return nil, fmt.Errorf("sweep: merge: missing shard %d/%d: grid not covered", s, count)
		}
	}

	// Reconstruct the canonical task grid from the meta and place every
	// shard record at its grid index, verifying shard membership.
	// Every axis value is checked as Options validation checks it before
	// any run, so a hand-edited meta gets a diagnostic naming the axis
	// rather than surfacing as records missing from the grid.
	g := base.grid()
	for i, a := range Axes {
		if err := a.check(g[3+i]); err != nil {
			return nil, fmt.Errorf("sweep: merge: %s: %w", paths[0], err)
		}
	}
	if slices.ContainsFunc(g, func(dim []string) bool { return len(dim) == 0 }) {
		return nil, fmt.Errorf("sweep: merge: %s: meta does not describe a task grid", paths[0])
	}
	if dup := duplicateEntry(g); dup != "" {
		// Run refuses to checkpoint such a grid; a meta claiming one is
		// hand-edited, and shard membership would be ambiguous.
		return nil, fmt.Errorf("sweep: merge: %s: duplicate grid entry %s: its tasks would share keys", paths[0], dup)
	}
	keyIdx := map[string]int{}
	var keys []string
	eachCell(g, func(_ []int, cell []string) {
		key := taskKey(cell)
		keyIdx[key] = len(keys)
		keys = append(keys, key)
	})
	merged := make([]*Record, len(keys))
	for i, recs := range shards {
		shard := metas[i].ShardIndex
		for key := range recs {
			rec := recs[key]
			gi, ok := keyIdx[key]
			if !ok {
				return nil, fmt.Errorf("sweep: merge: %s: record %s is not in the campaign grid", paths[i], key)
			}
			if gi%count != shard {
				return nil, fmt.Errorf("sweep: merge: record %s belongs to shard %d/%d but appears in %s (shard %d)",
					key, gi%count, count, paths[i], shard)
			}
			merged[gi] = &rec
		}
	}
	missing := 0
	firstMissing := ""
	for gi, rec := range merged {
		if rec == nil {
			if missing == 0 {
				firstMissing = keys[gi]
			}
			missing++
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("sweep: merge: grid not covered: %d of %d tasks missing (first: %s)",
			missing, len(keys), firstMissing)
	}

	res := &Results{Records: make([]Record, len(merged))}
	for gi, rec := range merged {
		res.Records[gi] = *rec
	}
	res.Options = optionsFromMeta(base, g)
	if out != "" {
		if err := WriteCheckpoint(out, base, res.Records); err != nil {
			return nil, fmt.Errorf("sweep: merge: %w", err)
		}
	}
	return res, nil
}

// optionsFromMeta reconstructs the sweep parameters recorded in a merged
// checkpoint meta, whose grid g Merge has checked, for reporting. Mappers
// are left nil: mapper objects cannot be rebuilt from their names, and the
// render paths only read Records. Unparseable config names are skipped
// (they cannot occur in a meta Run wrote).
func optionsFromMeta(m Meta, g [][]string) Options {
	opts := Options{
		Kernels:          g[1],
		Axes:             map[string][]string{},
		Scale:            m.Scale,
		Seed:             m.Seed,
		Verify:           m.Verify,
		DispatchOverhead: m.DispatchOverhead,
		NoCoalesce:       m.NoCoalesce,
		ConfigTag:        m.ConfigTag,
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
	meta.ShardIndex = 0
	meta.ShardCount = 1
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	werr := func() error {
		if err := writeJSONLine(w, meta); err != nil {
			return err
		}
		for _, rec := range records {
			if err := writeJSONLine(w, rec); err != nil {
				return err
			}
		}
		return w.Flush()
	}()
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}
