// dlserve runs the simulator as a service: an HTTP/JSON API over the
// canonical job spec (internal/spec), with a bounded job queue, a
// worker pool, a content-addressed result cache, an optional disk-spill
// result store, and /healthz + /metrics endpoints. See internal/serve
// for the API.
//
// Examples:
//
//	dlserve -addr :8077
//	dlserve -addr 127.0.0.1:0 -workers 4 -queue 32 -sidedir /tmp/dlserve
//	dlserve -addr :8077 -store /var/lib/dlserve/results
//
//	curl -s -X POST localhost:8077/v1/jobs \
//	     -d '{"kind":"sim","workload":"p2p","dimms":4,"channels":2}'
//
// With -peers, the node joins a cluster: submissions are routed to the
// spec's owner on a consistent-hash ring, content-addressed reads
// (/v1/results/{hash}) read through to peers, dead peers are marked
// suspect, routed around and probed back to health. Every node must be
// started with the same -peers set:
//
//	dlserve -addr :8077 -store s1 -peers http://h1:8077,http://h2:8077,http://h3:8077
//
// On SIGTERM/SIGINT the server drains: submissions are rejected with
// 503 while queued and running jobs finish and their results stay
// retrievable (use ?wait=1 on the result endpoint), then the listener
// shuts down and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8077", "listen address (host:port; port 0 picks a free port)")
		workers    = flag.Int("workers", 2, "job worker-pool width")
		queue      = flag.Int("queue", 16, "pending-job queue depth (full queue rejects with 429)")
		cache      = flag.Int("cache", 64, "result cache bound (entries)")
		expJobs    = flag.Int("jobs", 0, "per-experiment grid pool width (0 = GOMAXPROCS); output is identical for every value")
		parallel   = flag.Int("parallel", 0, "event lanes per simulation, with lane-confined kernel phases in parallel (0/1 = single queue); output is identical for every value")
		jobTimeout = flag.Duration("jobtimeout", 0, "per-job wall-clock bound (0 = none)")
		sideDir    = flag.String("sidedir", "", "directory for per-job side files (spec, trace, status)")
		drainGrace = flag.Duration("drain", 2*time.Minute, "max time to wait for in-flight jobs on shutdown before canceling them")
		storeDir   = flag.String("store", "", "disk-spill result store directory (content-addressed, survives restarts)")
		storeMax   = flag.Int("storemax", 4096, "disk store bound (entries, evicted oldest-first)")
		tracesDir  = flag.String("traces", "", "uploaded-trace blob store directory (default: <store>/traces when -store is set, else a temp dir)")
		peers      = flag.String("peers", "", "comma-separated cluster node base URLs, this node included (enables cluster routing)")
		selfURL    = flag.String("self", "", "this node's base URL as peers address it (default http://<listen addr>)")
		vnodes     = flag.Int("vnodes", 0, "consistent-hash virtual nodes per ring member (0 = default)")
		probe      = flag.Duration("probe", 2*time.Second, "suspect-peer health probe interval")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *sideDir != "" {
		if err := os.MkdirAll(*sideDir, 0o755); err != nil {
			logger.Fatalf("dlserve: sidedir: %v", err)
		}
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, *storeMax)
		if err != nil {
			logger.Fatalf("dlserve: store: %v", err)
		}
		logger.Printf("dlserve: disk store %s (%d entries)", st.Dir(), st.Len())
	}

	// Traces always get a blob store: next to the result store when one is
	// configured, otherwise in a throwaway temp dir (uploads then live for
	// the process lifetime only, which still serves the common
	// upload-then-submit flow).
	tdir := *tracesDir
	if tdir == "" {
		if *storeDir != "" {
			tdir = *storeDir + "/traces"
		} else {
			var err error
			tdir, err = os.MkdirTemp("", "dlserve-traces-")
			if err != nil {
				logger.Fatalf("dlserve: traces: %v", err)
			}
		}
	}
	traces, err := store.OpenBlobs(tdir)
	if err != nil {
		logger.Fatalf("dlserve: traces: %v", err)
	}
	logger.Printf("dlserve: trace store %s (%d traces)", traces.Dir(), traces.Len())

	srv := serve.NewServer(serve.Config{
		Workers: *workers, QueueDepth: *queue, CacheEntries: *cache,
		ExpJobs: *expJobs, Parallel: *parallel, JobTimeout: *jobTimeout, SideDir: *sideDir,
		Store: st, Traces: traces,
		Logf: logger.Printf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("dlserve: listen: %v", err)
	}

	handler := http.Handler(srv)
	var rt *cluster.Router
	if *peers != "" {
		self := *selfURL
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		var nodes []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				nodes = append(nodes, p)
			}
		}
		rt, err = cluster.NewRouter(cluster.RouterConfig{
			Self: self, Nodes: nodes, VNodes: *vnodes,
			Local: srv, ProbeInterval: *probe, Logf: logger.Printf,
		})
		if err != nil {
			logger.Fatalf("dlserve: cluster: %v", err)
		}
		handler = rt
		logger.Printf("dlserve: cluster node %s in ring of %d", self, len(nodes))
	}

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The listening line goes to stdout so scripts (ci.sh's smoke) can
	// discover an ephemeral port.
	fmt.Printf("dlserve: listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		logger.Printf("dlserve: %s: draining (in-flight jobs finish, submissions get 503)", sig)
		if rt != nil {
			rt.Close() // stop probing peers; local serving continues through drain
		}
		// Drain jobs first, while the listener still serves status and
		// result reads — clients blocked on ?wait=1 get their bodies.
		dctx, dcancel := context.WithTimeout(context.Background(), *drainGrace)
		if err := srv.Drain(dctx); err != nil {
			logger.Printf("dlserve: drain: %v (in-flight jobs canceled)", err)
		}
		dcancel()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(sctx); err != nil {
			logger.Printf("dlserve: shutdown: %v", err)
		}
		scancel()
		logger.Printf("dlserve: drained, exiting")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("dlserve: serve: %v", err)
		}
	}
}
