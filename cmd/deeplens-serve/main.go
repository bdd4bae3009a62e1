// deeplens-serve runs the DeepLens query service: it ingests (or reuses)
// a benchmark database, registers the TrafficCam frame source for
// inference sweeps, and serves the HTTP JSON API.
//
//	deeplens-serve -addr :8080 -workers 8 -frames 240
//
// It is a server only; the repository's load and latency measurement is
// the benchmark/ module, which drives this same handler over HTTP.
//
// On SIGINT or SIGTERM it stops accepting requests, lets those in flight
// finish, flushes and closes the store, and removes the data directory
// when it made one (no -dir).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/service"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that trickles header bytes cannot hold a
// connection open indefinitely. Bodies are not bounded: an /append
// batch may stream for longer.
const readHeaderTimeout = 5 * time.Second

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func parseDevice(s string) (exec.Kind, error) {
	switch strings.ToLower(s) {
	case "cpu":
		return exec.CPU, nil
	case "avx":
		return exec.AVX, nil
	case "gpu":
		return exec.GPU, nil
	default:
		return 0, fmt.Errorf("unknown device %q (want cpu, avx or gpu)", s)
	}
}

// trafficSource adapts the deterministic TrafficCam generator to the
// service's FrameSource.
type trafficSource struct{ tr *dataset.Traffic }

func (t trafficSource) Frames() int { return t.tr.Frames }
func (t trafficSource) Render(i int) (*codec.Image, error) {
	img, _ := t.tr.Render(i)
	return img, nil
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		dir        = flag.String("dir", "", "data directory (default: a fresh temp dir)")
		shards     = flag.Int("shards", 1, "partition collections across N DB shards (shard subdirectories under -dir; queries run scatter-gather)")
		replicas   = flag.Int("replicas", 1, "replicas per shard (appends write all replicas of the home shard; reads hedge across them)")
		queryTO    = flag.Duration("query-timeout", 0, "server-side query deadline (0 = none; requests may override with timeout_ms; exceeded = HTTP 504)")
		hedgeAfter = flag.Duration("hedge-after", 0, "how long a fragment attempt runs before it is hedged to another replica (0 = default 25ms, negative disables hedging)")
		resyncIvl  = flag.Duration("resync-interval", 0, "anti-entropy sweep cadence: how often demoted replicas are re-synced from their primary (0 = default 200ms, negative disables; only with -replicas > 1)")
		faultSpec  = flag.String("fault", "", "comma-separated failpoint rules point[@shard[.replica]]:prob[:stall_ms], e.g. fragment-stall:0.2 or append-error@*.1:1 (points: fragment-error, fragment-stall, append-error, device-stall, resync-error, resync-stall)")
		faultSeed  = flag.Int64("fault-seed", 1, "deterministic seed for failpoint probability draws")
		workers    = flag.Int("workers", 8, "executor pool size")
		queue      = flag.Int("queue", 64, "admission queue depth")
		device     = flag.String("device", "cpu", "execution backend: cpu, avx or gpu")
		devices    = flag.Int("devices", 0, "physical devices backing the pool (0 = one per worker; fewer shares devices through the kernel batcher)")
		cacheMB    = flag.Int("cache-mb", 32, "result cache budget (MiB)")
		colMemMB   = flag.Int("column-mem-budget", 0, "tiered column store: MiB of decoded column segments kept resident; colder sealed segments stay as their in-memory encoding and decode on demand (0 or negative disables tiering and keeps every segment decoded)")
		udfCacheMB = flag.Int("udf-cache-mb", 128, "UDF materialization cache budget (MiB)")
		slowMS     = flag.Int("slow-query-ms", 250, "slow-query log threshold in milliseconds (negative disables GET /debug/slow)")
		traceSmp   = flag.Float64("trace-sample", 0, "background trace sampling rate in (0,1]: capture spans for ~1 in 1/rate queries that did not ask for a trace (0 = off)")

		frames  = flag.Int("frames", 240, "TrafficCam frames to ingest")
		pcImgs  = flag.Int("pc-images", 120, "PC corpus images to ingest")
		clips   = flag.Int("clips", 2, "football clips to ingest")
		clipLen = flag.Int("clip-len", 30, "football clip length")
	)
	flag.Parse()

	kind, err := parseDevice(*device)
	if err != nil {
		return err
	}
	// Caught from here on, so a signal during ingest still ends in the
	// shutdown below, which runs every deferred close.
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *dir == "" {
		d, err := os.MkdirTemp("", "deeplens-serve")
		if err != nil {
			return err
		}
		*dir = d
		defer os.RemoveAll(d) // deferred first, so it runs after the store closes
	} else if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}

	cfg := dataset.Default()
	cfg.TrafficFrames = *frames
	cfg.PCImages = *pcImgs
	cfg.FootballClips = *clips
	cfg.FootballClipLen = *clipLen

	svcCfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		Device:           kind,
		Devices:          *devices,
		ResultCacheBytes: int64(*cacheMB) << 20,
		UDFCacheBytes:    int64(*udfCacheMB) << 20,
		ModelSeed:        bench.ModelSeed,

		SlowQueryThreshold: time.Duration(*slowMS) * time.Millisecond,
		TraceSample:        *traceSmp,

		QueryTimeout:   *queryTO,
		HedgeAfter:     *hedgeAfter,
		ResyncInterval: *resyncIvl,

		ColumnMemBudget: int64(*colMemMB) << 20,
	}
	if *faultSpec != "" {
		rules, err := fault.ParseRules(*faultSpec)
		if err != nil {
			return err
		}
		svcCfg.Faults = fault.Config{Seed: *faultSeed, Rules: rules}
		log.Printf("fault injection armed (seed %d): %s", *faultSeed, *faultSpec)
	}

	if *replicas < 1 {
		return fmt.Errorf("-replicas %d: want >= 1", *replicas)
	}
	useSharded, err := checkDirLayout(*dir, *shards, *replicas)
	if err != nil {
		return err
	}

	var (
		env *bench.Env
		svc *service.Service
	)
	start := time.Now()
	if useSharded {
		log.Printf("ingesting into %s across %d shards x %d replicas (reused if already materialized)...",
			*dir, *shards, *replicas)
		env, err = bench.NewShardedReplicaEnv(*dir, cfg, *shards, *replicas, exec.New(kind))
		if err != nil {
			return err
		}
		defer env.Close()
		log.Printf("sharded catalog ready in %v: collections %v across %d shards x %d replicas",
			time.Since(start).Round(time.Millisecond), env.Shards.Collections(),
			env.Shards.NumShards(), env.Shards.Replicas())
		svc, err = service.NewSharded(env.Shards, svcCfg)
	} else {
		log.Printf("ingesting into %s (reused if already materialized)...", *dir)
		env, err = bench.NewEnv(*dir, cfg, exec.New(kind))
		if err != nil {
			return err
		}
		defer env.Close()
		log.Printf("catalog ready in %v: collections %v", time.Since(start).Round(time.Millisecond), env.DB.Collections())
		svc, err = service.New(env.DB, svcCfg)
	}
	if err != nil {
		return err
	}
	defer svc.Close()
	svc.RegisterSource("trafficcam", trafficSource{env.Traffic})

	// The service API plus Go's profiling handlers (heap, goroutine,
	// 30-second CPU profiles) for diagnosing serving hot paths in place.
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	log.Printf("serving on %s (%d workers on %d %s devices, queue %d, pprof at /debug/pprof/)",
		*addr, *workers, svc.Stats().Devices, kind, *queue)
	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err := <-served:
		return err
	case <-sig.Done():
	}
	log.Printf("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// checkDirLayout reconciles the -shards flag with the -dir's on-disk
// layout and reports whether the sharded path should be used.
// core.OpenSharded already rejects a sharded directory reopened at a
// different count; the cases it cannot see are sharded vs unsharded
// transitions, which would otherwise silently re-ingest a second
// database alongside the existing one.
func checkDirLayout(dir string, shards, replicas int) (useSharded bool, err error) {
	wantSharded := shards > 1 || replicas > 1
	raw, readErr := os.ReadFile(filepath.Join(dir, "SHARDS.json"))
	if readErr == nil {
		var m struct {
			Shards int `json:"shards"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			// Route into the sharded opener, whose corruption diagnosis
			// names the file; guessing a count here would mislead.
			return true, nil
		}
		if !wantSharded && m.Shards != 1 {
			return false, fmt.Errorf("%s holds a sharded database (%d shards): pass -shards %d, or re-ingest into a fresh -dir",
				dir, m.Shards, m.Shards)
		}
		return true, nil // existing sharded layout (OpenShardedReplicas re-validates the topology)
	}
	if wantSharded {
		if _, err := os.Stat(filepath.Join(dir, "deeplens.db")); err == nil {
			return false, fmt.Errorf("%s holds an unsharded database: drop -shards/-replicas, or re-ingest into a fresh -dir", dir)
		}
		return true, nil
	}
	return false, nil
}
