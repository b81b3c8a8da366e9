package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"jinjing/internal/faultinject"
	"jinjing/internal/obs"
)

// runParallel runs fn(i) for each i in [0, n) across at most workers
// goroutines, returning when all calls complete. Work is handed out by
// an atomic counter, so callers writing to out[i]-style slots need no
// further synchronization.
//
// A panicking fn crashes only its worker: the panic is recovered (and
// counted on worker.panic.recovered), the job is parked, and whatever
// the dead workers left behind is re-run sequentially after the pool
// drains — without recovery, so a deterministic bug surfaces on the
// retry instead of being swallowed.
func runParallel(o *obs.Observer, workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failed []int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							o.Counter("worker.panic.recovered").Inc()
							failMu.Lock()
							failed = append(failed, i)
							failMu.Unlock()
						}
					}()
					if faultinject.Fire(faultinject.ParallelJob) == faultinject.Panic {
						panic("faultinject: injected panic at " + string(faultinject.ParallelJob))
					}
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	sort.Ints(failed)
	for _, i := range failed {
		fn(i)
	}
}
