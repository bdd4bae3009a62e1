//go:build goexperiment.synctest

package exec

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// On/off ablation of the batcher's idle flush and its idle probe, run in
// testing/synctest bubbles. The simulated GPU's launch charge is 3 ms, so
// charge sleeps (it spins below 1 ms) and a launch takes synthetic time;
// the flush window is 5 ms, keeping the default 50µs:30µs ratio of window
// to launch charge. Every arrival and CPU gap is drawn to the nanosecond
// from one seed, so no two workers act at one synthetic instant and each
// table prints the same on every run:
//
//	GOEXPERIMENT=synctest go test -run Ablation -v ./internal/exec

const (
	ablationLaunch = 3 * time.Millisecond
	ablationWindow = 5 * time.Millisecond
)

// ablationTask is one query's kernel work: it arrives, runs a CPU gap
// before each of its kernels and one after the last.
type ablationTask struct {
	arrive time.Duration // offset from the run's start
	gaps   []time.Duration
}

// ablationTasks draws n tasks of r kernels each: Poisson arrivals with
// the given mean spacing and CPU gaps uniform in [0.4 ms, 2 ms).
func ablationTasks(n, r int, spacing time.Duration) []ablationTask {
	rng := rand.New(rand.NewPCG(1, 2))
	tasks := make([]ablationTask, n)
	at := time.Duration(0)
	for i := range tasks {
		at += time.Duration(rng.ExpFloat64() * float64(spacing))
		gaps := make([]time.Duration, r+1)
		for j := range gaps {
			gaps[j] = 400*time.Microsecond + time.Duration(rng.Int64N(int64(1600*time.Microsecond)))
		}
		tasks[i] = ablationTask{arrive: at, gaps: gaps}
	}
	return tasks
}

// flushRun is one arm's outcome.
type flushRun struct {
	launches          int64
	fusion            float64
	waitMean, waitP99 time.Duration
	taskMean, taskP99 time.Duration
}

// runFlushArm serves tasks on k workers that share one batcher with
// MaxBatch k, taking tasks from a queue the way the service's workers
// do. register turns on the idle flush (each task is a registered
// submitter); probe installs the service's idle probe, which holds
// partial batches while the queue is non-empty. Kernels alternate
// between two GEMM shapes, as a network's layers do.
func runFlushArm(tasks []ablationTask, k int, register, probe bool) flushRun {
	// The result leaves the bubble on a channel made outside it: the
	// race detector sees no ordering from synctest.Run's return.
	out := make(chan flushRun, 1)
	synctest.Run(func() {
		b := NewBatcher(NewGPU(GPUProfile{LaunchLatency: ablationLaunch, BytesPerSecond: 6e9}),
			BatcherConfig{MaxBatch: k, Window: ablationWindow})
		type queued struct {
			task ablationTask
			enq  time.Time
		}
		queue := make(chan queued, len(tasks))
		if probe {
			b.SetIdleProbe(func() bool { return len(queue) == 0 })
		}
		weights := [2][]float32{make([]float32, 16*16), make([]float32, 32*8)}
		shapes := [2][2]int{{16, 16}, {32, 8}} // (k, n)

		var mu sync.Mutex
		var waits, spans []time.Duration
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range queue {
					if register {
						b.BeginSubmitter()
					}
					for j, gap := range q.task.gaps[:len(q.task.gaps)-1] {
						time.Sleep(gap)
						s := shapes[j%2]
						a, c := make([]float32, 4*s[0]), make([]float32, 4*s[1])
						var rec kernelRecord
						b.gemm(4, s[1], s[0], a, weights[j%2], c, &rec)
						mu.Lock()
						waits = append(waits, rec.wait)
						mu.Unlock()
					}
					time.Sleep(q.task.gaps[len(q.task.gaps)-1])
					if register {
						b.EndSubmitter()
					}
					mu.Lock()
					spans = append(spans, time.Since(q.enq))
					mu.Unlock()
				}
			}()
		}
		start := time.Now()
		for _, task := range tasks {
			time.Sleep(start.Add(task.arrive).Sub(time.Now()))
			queue <- queued{task: task, enq: time.Now()}
		}
		close(queue)
		wg.Wait()

		st := b.BatcherStats()
		run := flushRun{launches: st.Launches, fusion: st.FusionFactor()}
		run.waitMean, run.waitP99 = meanP99(waits)
		run.taskMean, run.taskP99 = meanP99(spans)
		out <- run
	})
	return <-out
}

// meanP99 returns the mean and the nearest-rank 99th percentile.
func meanP99(ds []time.Duration) (time.Duration, time.Duration) {
	slices.Sort(ds)
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	i := (len(ds)*99 + 99) / 100
	return sum / time.Duration(len(ds)), ds[i-1]
}

// TestIdleFlushAblation: 200 tasks of 6 kernels on k workers sharing
// one GPU. The idle flush off (no submitter registers), on without the
// probe, and on with it.
func TestIdleFlushAblation(t *testing.T) {
	tasks := ablationTasks(200, 6, 8*time.Millisecond)
	arms := []struct {
		name            string
		register, probe bool
	}{{"off", false, false}, {"idle flush", true, false}, {"idle flush + probe", true, true}}
	var tab strings.Builder
	tab.WriteString("| k | arm | launches | fusion | wait mean | wait p99 | task mean | task p99 |\n|---|---|---|---|---|---|---|---|\n")
	for _, k := range []int{1, 2, 4, 8} {
		runs := make([]flushRun, len(arms))
		for i, arm := range arms {
			r := runFlushArm(tasks, k, arm.register, arm.probe)
			runs[i] = r
			fmt.Fprintf(&tab, "| %d | %s | %d | %.3f | %v | %v | %v | %v |\n", k, arm.name, r.launches, r.fusion,
				r.waitMean.Round(time.Microsecond), r.waitP99.Round(time.Microsecond),
				r.taskMean.Round(time.Microsecond), r.taskP99.Round(time.Microsecond))
		}
		// The wins: once the workers keep up (k >= 4), the idle flush
		// finishes tasks sooner than waiting out the window; while tasks
		// queue (k = 2, 4), the probe fuses more kernels per launch than
		// the idle flush alone.
		off, idle, probe := runs[0], runs[1], runs[2]
		if k >= 4 && idle.taskMean >= off.taskMean {
			t.Errorf("k=%d: idle flush task mean %v, off %v", k, idle.taskMean, off.taskMean)
		}
		if (k == 2 || k == 4) && probe.launches >= idle.launches {
			t.Errorf("k=%d: probe launches %d, idle flush alone %d", k, probe.launches, idle.launches)
		}
	}
	t.Log("idle flush, 200 tasks x 6 kernels, launch 3ms, window 5ms\n" + tab.String())
}
