package sweep

import (
	"fmt"
	"os"
	"slices"
	"sync"
)

// Campaign owns the state of one campaign run: its slice of the task grid,
// one record slot per task, the resume splice and the streamed checkpoint.
// Run and the campaign service are two schedulers over it — they decide
// which task runs where and when — and both hand every outcome to Submit,
// which holds the one acceptance rule.
type Campaign struct {
	opts    Options
	tasks   []Task    // this shard's slice of the canonical grid, in grid order
	index   gridIndex // places a record in its slot; nil for a plain in-memory campaign
	resumed int

	mu      sync.Mutex
	recs    []Record
	state   []slotState
	done    int // slots holding a record, failures included
	failed  int
	ckpt    *CheckpointWriter
	sinkErr error
}

type slotState int8

const (
	slotOpen   slotState = iota
	slotDone             // holds a success (checkpointed when streaming)
	slotFailed           // holds a record carrying Record.Err
)

// Outcome reports what Submit did with a record.
type Outcome int8

const (
	Accepted  Outcome = iota // the slot's first success, or a success superseding a failure
	Duplicate                // a success replacing a held success: the later wins
	Failed                   // a failure, held until a success supersedes it
	Ignored                  // a failure arriving after a held success
)

// NewCampaign validates opts and opens the campaign they describe: every
// ShardCount-th task of the canonical grid starting at ShardIndex. A
// sharded, checkpointed or handout campaign places records by grid index
// (Slot), so no grid entry may repeat. With Checkpoint set the file is
// opened for streaming; with Resume too, every task already recorded there
// is spliced into its slot first.
func NewCampaign(opts Options, handout bool) (*Campaign, error) {
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.ShardIndex < 0 || opts.ShardIndex >= opts.ShardCount {
		return nil, fmt.Errorf("sweep: shard index %d out of range for %d shards", opts.ShardIndex, opts.ShardCount)
	}
	c := &Campaign{opts: opts}
	if handout || opts.ShardCount > 1 || opts.Checkpoint != "" {
		var dup string // would alias two tasks onto one cell
		if c.index, dup = newGridIndex(opts.grid()); dup != "" {
			return nil, fmt.Errorf("sweep: duplicate grid entry %s: sharding, checkpointing and task handout require unique task keys", dup)
		}
	}
	c.tasks = enumerateTasks(opts, opts.ShardIndex, opts.ShardCount)
	c.recs = make([]Record, len(c.tasks))
	c.state = make([]slotState, len(c.tasks))
	if opts.Resume && opts.Checkpoint != "" {
		if err := c.resume(); err != nil {
			return nil, fmt.Errorf("sweep: resume: %w", err)
		}
		c.done = c.resumed
	}
	if opts.Checkpoint != "" {
		ckpt, err := OpenCheckpoint(opts.Checkpoint, opts.Resume, opts)
		if err != nil {
			return nil, fmt.Errorf("sweep: checkpoint: %w", err)
		}
		c.ckpt = ckpt
	}
	if opts.Progress != nil && c.resumed > 0 {
		opts.Progress(c.done, len(c.tasks))
	}
	return c, nil
}

// resume splices the records of opts.Checkpoint into their slots in file
// order, so a later duplicate wins; records of other shards are skipped. A
// checkpoint of a different experiment, or records it cannot bind to
// options, is refused rather than spliced.
func (c *Campaign) resume() error {
	path := c.opts.Checkpoint
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil // first run of a resumable campaign
	}
	if err != nil {
		return err
	}
	defer f.Close()
	headed := false
	return scanCheckpoint(f, func(m Meta) error {
		if want := MetaFor(c.opts); m != want {
			return fmt.Errorf("checkpoint %s was written with different sweep options (checkpoint vs this run: %s)", path, m.Diff(want))
		}
		headed = true
		return nil
	}, func(rec Record) error {
		if !headed {
			// Records without a meta cannot be validated against opts;
			// splicing them could silently break byte identity.
			return fmt.Errorf("checkpoint %s has records but no meta header", path)
		}
		if slot, ok := c.Slot(rec); ok {
			if c.state[slot] == slotOpen {
				c.resumed++
			}
			c.recs[slot], c.state[slot] = rec, slotDone
		}
		return nil
	})
}

// Slot returns the slot of rec's task, or false for a record outside the
// campaign's slice of the grid (or a campaign with no index).
func (c *Campaign) Slot(rec Record) (int, bool) {
	gi, ok := c.index.of(rec)
	if !ok || gi%c.opts.ShardCount != c.opts.ShardIndex {
		return 0, false
	}
	return gi / c.opts.ShardCount, true
}

// Submit records rec as the outcome of the task in slot, by the one
// acceptance rule every scheduler shares:
//   - a failure is never checkpointed, so a resume retries it; it fills an
//     open slot or replaces a held failure, but a held success beats it;
//   - a success is appended to the checkpoint, and flushed, before Submit
//     returns; it fills an open slot, supersedes a failure, or replaces a
//     held success — the later duplicate wins, as in a resume or Merge.
//
// Options.Progress and Options.OnRecord run on each slot's first
// completion, failures and successes alike, serialized by the campaign's
// lock: they must not call back into the campaign. A checkpoint write
// error leaves the slot as it was; it is returned and reported by Err.
func (c *Campaign) Submit(slot int, rec Record) (Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state[slot]
	if rec.Err != "" {
		if st == slotDone {
			return Ignored, nil
		}
		c.recs[slot], c.state[slot] = rec, slotFailed
		if st == slotOpen {
			c.failed++
			c.completeLocked(rec)
		}
		return Failed, nil
	}
	if c.ckpt != nil {
		if err := c.ckpt.Append(rec); err != nil {
			if c.sinkErr == nil {
				c.sinkErr = err
			}
			return Accepted, err
		}
	}
	c.recs[slot], c.state[slot] = rec, slotDone
	switch st {
	case slotDone:
		return Duplicate, nil
	case slotFailed:
		c.failed--
	default:
		c.completeLocked(rec)
	}
	return Accepted, nil
}

func (c *Campaign) completeLocked(rec Record) {
	c.done++
	if c.opts.Progress != nil {
		c.opts.Progress(c.done, len(c.tasks))
	}
	if c.opts.OnRecord != nil {
		c.opts.OnRecord(rec)
	}
}

// Open returns, in slot order, up to max slots that hold no record yet and
// that free reports available.
func (c *Campaign) Open(max int, free func(slot int) bool) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for slot, st := range c.state {
		if st == slotOpen && free(slot) {
			if out = append(out, slot); len(out) == max {
				break
			}
		}
	}
	return out
}

// Counts reports the number of slots, of slots holding a record (failures
// included) and of slots holding a failure.
func (c *Campaign) Counts() (total, done, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tasks), c.done, c.failed
}

// Err is the end-of-campaign error: a checkpoint write fault first, then
// tasks still outstanding, then the first failed task in slot order. It is
// nil once every slot holds a success.
func (c *Campaign) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sinkErr != nil {
		return fmt.Errorf("sweep: checkpoint write: %w", c.sinkErr)
	}
	if n := len(c.tasks) - c.done; n > 0 {
		return fmt.Errorf("sweep: campaign in flight: %d of %d tasks outstanding", n, len(c.tasks))
	}
	if i := slices.Index(c.state, slotFailed); i >= 0 {
		r := c.recs[i]
		return fmt.Errorf("sweep: %s/%s on %s: %s", r.Kernel, r.Mapper, r.Config.Name(), r.Err)
	}
	return nil
}

// Results returns the campaign's records in slot order — canonical grid
// order of this shard — together with Err.
func (c *Campaign) Results() (*Results, error) {
	c.mu.Lock()
	res := &Results{Records: slices.Clone(c.recs), Cache: CacheReport{Resumed: c.resumed}}
	c.mu.Unlock()
	return res, c.Err()
}

// Close flushes and closes the streamed checkpoint; an error closing it is
// a checkpoint write fault, reported by Err too.
func (c *Campaign) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ckpt == nil {
		return nil
	}
	err := c.ckpt.Close()
	c.ckpt = nil
	if err != nil && c.sinkErr == nil {
		c.sinkErr = err
	}
	return err
}
