package kernels

import (
	"sync"

	"repro/internal/ocl"
)

// The case memo. A campaign runs the same kernel at the same Params once
// per (configuration, mapper) — 450 x 3 times for the Figure 2 grid — and
// each run would otherwise regenerate identical host inputs and CPU
// references and bind identical launches. Spec.Build builds the Case once
// per (kernel, Params), on a device whose heap is at ocl.HeapBase, and
// every later Build on such a device replays the build's uploads instead:
// call order fixes every buffer's address (see binder), so the replay
// leaves the device's memory byte for byte as the build left its own, and
// the shared Case runs and verifies on it unchanged. A device whose heap is
// elsewhere would place the buffers elsewhere; Build builds fresh there and
// memoizes nothing. Memoized cases are shared across goroutines and
// read-only. A campaign touches one key per kernel; ResetInputCache drops
// them.
var cases = struct {
	sync.Mutex
	m    map[caseKey]*caseEntry // never evicted: its size counts the builds
	hits uint64
}{m: map[caseKey]*caseEntry{}}

// caseKey names one registry build.
type caseKey struct {
	kernel string
	p      Params
}

// caseEntry is one memoized build; ready is closed once c and err are set.
type caseEntry struct {
	ready chan struct{}
	c     *Case
	err   error
}

// memoBuild returns s's case at p on d, whose heap must be at
// ocl.HeapBase: the first caller of a key builds it on its own device, and
// every later caller waits for that build and replays it onto d.
func (s Spec) memoBuild(d *ocl.Device, p Params) (*Case, error) {
	key := caseKey{s.Name, p}
	cases.Lock()
	e, ok := cases.m[key]
	if ok {
		cases.hits++
	} else {
		e = &caseEntry{ready: make(chan struct{})}
		cases.m[key] = e
	}
	cases.Unlock()
	if !ok {
		defer close(e.ready)
		e.c, e.err = s.build(d, p)
		return e.c, e.err
	}
	<-e.ready
	if e.err != nil {
		return nil, e.err
	}
	return e.c, e.c.replay(d)
}

// replay allocates and uploads c's buffers on d in the build's call order.
func (c *Case) replay(d *ocl.Device) error {
	for _, u := range c.uploads {
		if _, err := u.put(d); err != nil {
			return err
		}
	}
	return nil
}

// InputCacheStats returns the process-wide case-memo counters: Misses
// counts case builds, Hits replays.
func InputCacheStats() ocl.CacheCounters {
	cases.Lock()
	defer cases.Unlock()
	return ocl.CacheCounters{Hits: cases.hits, Misses: uint64(len(cases.m))}
}

// ResetInputCache drops every memoized case and zeroes the counters, so the
// next Build of each key generates its inputs again (cold-path benchmarks
// and tests).
func ResetInputCache() {
	cases.Lock()
	defer cases.Unlock()
	cases.m, cases.hits = map[caseKey]*caseEntry{}, 0
}
