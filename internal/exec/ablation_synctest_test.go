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
// testing/synctest bubbles over 20 seeds. The simulated GPU's launch charge is 3 ms, so
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

// ablationTasks draws n tasks of r kernels each from seed: Poisson
// arrivals with the given mean spacing and CPU gaps uniform in
// [0.4 ms, 2 ms).
func ablationTasks(seed uint64, n, r int, spacing time.Duration) []ablationTask {
	rng := rand.New(rand.NewPCG(seed, 2))
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

// flushArm is one idle-flush policy. register turns on the idle flush
// (each task is a registered submitter); probe installs the service's
// idle probe, which holds partial batches while the queue is non-empty.
type flushArm struct {
	name            string
	register, probe bool
}

// runFlushArm serves tasks on k workers that share one batcher with
// MaxBatch k, taking tasks from a queue the way the service's workers
// do. Kernels alternate between two GEMM shapes, as a network's layers
// do.
func runFlushArm(tasks []ablationTask, k int, arm flushArm) flushRun {
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
		if arm.probe {
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
					if arm.register {
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
					if arm.register {
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

// seedWins counts the seeds at which a beats b, lower being better.
func seedWins[T float64 | time.Duration](a, b []T) int {
	n := 0
	for i := range a {
		if a[i] < b[i] {
			n++
		}
	}
	return n
}

// mean is the arithmetic mean of xs.
func mean[T float64 | time.Duration](xs []T) T {
	var sum T
	for _, x := range xs {
		sum += x
	}
	return sum / T(len(xs))
}

// TestIdleFlushAblation: 200 tasks of 6 kernels on k workers sharing
// one GPU, at each of 20 seeds. (At k = 1, MaxBatch 1 launches every
// kernel at once, so every arm runs the same schedule.) Each arm adds
// one mechanism to the arm before it: the idle flush, then the queue
// probe. The table gives each arm's means over the seeds and how many
// seeds it beats the arm before it at. The rule, fixed before the sweep
// ran: a mechanism stays only where it beats the arm without it at 15
// or more of the 20 seeds on launches or on mean task time.
func TestIdleFlushAblation(t *testing.T) {
	const seeds, pass = 20, 15
	arms := []flushArm{
		{name: "off"},
		{name: "idle flush", register: true},
		{name: "idle flush + probe", register: true, probe: true},
	}
	var tab, vsOff strings.Builder
	tab.WriteString("| k | arm | launches | fusion | wait mean | task mean | task p99 | seeds won: launches | seeds won: task mean |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, k := range []int{2, 4, 8} {
		launches := make([][]float64, len(arms))
		tasks := make([][]time.Duration, len(arms))
		for i, arm := range arms {
			var fusion float64
			var waits, p99s []time.Duration
			for seed := uint64(1); seed <= seeds; seed++ {
				r := runFlushArm(ablationTasks(seed, 200, 6, 8*time.Millisecond), k, arm)
				launches[i] = append(launches[i], float64(r.launches))
				tasks[i] = append(tasks[i], r.taskMean)
				fusion += r.fusion / seeds
				waits, p99s = append(waits, r.waitMean), append(p99s, r.taskP99)
			}
			wins := "– | –"
			if i > 0 {
				wins = fmt.Sprintf("%d | %d", seedWins(launches[i], launches[i-1]), seedWins(tasks[i], tasks[i-1]))
			}
			fmt.Fprintf(&tab, "| %d | %s | %.1f | %.3f | %v | %v | %v | %s |\n", k, arm.name,
				mean(launches[i]), fusion, mean(waits).Round(time.Microsecond),
				mean(tasks[i]).Round(time.Microsecond), mean(p99s).Round(time.Microsecond), wins)
		}
		won := func(i int) bool {
			return seedWins(launches[i], launches[i-1]) >= pass || seedWins(tasks[i], tasks[i-1]) >= pass
		}
		// The idle flush and the probe each win somewhere.
		if k == 8 && !won(1) {
			t.Errorf("k=%d: the idle flush does not beat off at %d seeds", k, pass)
		}
		if k == 4 && !won(2) {
			t.Errorf("k=%d: the probe does not beat the idle flush alone at %d seeds", k, pass)
		}
		fmt.Fprintf(&vsOff, "k=%d: %d and %d; ", k, seedWins(launches[2], launches[0]), seedWins(tasks[2], tasks[0]))
	}
	t.Log("seeds at which the service's idle flush + probe beats off on launches and on task mean: " + vsOff.String())
	t.Log("idle flush, 200 tasks x 6 kernels, launch 3ms, window 5ms, means over 20 seeds\n" + tab.String())
}
