package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/service"
	"repro/service/client"
	"repro/telemetry"
)

// Cluster-mode benchmark (-cluster): boot 1- and 3-node in-process fleets
// and drive them through the ClusterClient under each routing policy,
// writing a BENCH_CLUSTER.json snapshot. The comparison of interest is a
// single oversubscribed node (its admission gate shedding 429s) against
// three nodes behind hash and least-loaded routing — fleet-level shedding
// vs fleet-level spreading on the same total offered load.
//
// With -cluster-nodes the fleet is external (already-running szxd
// processes, as in the CI cluster-smoke job): one least-loaded, retried
// sweep is driven against it and the process exits non-zero if any
// request fails — the assertion that retries absorbed whatever happened
// to the fleet mid-run (the smoke job SIGKILLs a node on purpose).

type clusterLevel struct {
	Nodes    int     `json:"nodes"`
	Policy   string  `json:"policy"`
	Clients  int     `json:"clients"`
	Requests int64   `json:"requests"`
	Failed   int64   `json:"failed"`
	Shed     int64   `json:"shed"`    // server-side 429/503 admission denials (in-process fleets only)
	Retries  int64   `json:"retries"` // cluster-client retries against another node
	MBs      float64 `json:"mb_s"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

type clusterReport struct {
	Date       string         `json:"date"`
	Goos       string         `json:"goos"`
	Goarch     string         `json:"goarch"`
	CPU        string         `json:"cpu"`
	Gomaxprocs int            `json:"gomaxprocs"`
	Note       string         `json:"note"`
	Commands   []string       `json:"commands"`
	Levels     []clusterLevel `json:"levels"`
}

// shedCount sums the server-side admission denials visible in this
// process (meaningful only for in-process fleets).
func shedCount() int64 {
	return telemetry.ServiceRejectedQueueFull.Load() +
		telemetry.ServiceRejectedWaitTimeout.Load() +
		telemetry.ServiceRejectedDraining.Load()
}

// startClusterNodes boots n in-process szxd nodes with a deliberately
// small admission window, so the single-node level sheds under the full
// client load and the 3-node levels show routing absorbing it.
func startClusterNodes(n int) (urls []string, shutdown func(), err error) {
	var closers []func()
	shutdown = func() {
		for _, c := range closers {
			c()
		}
	}
	for range n {
		// A deliberately tight gate (one slot, no queue): 8 clients of 8 MiB
		// requests oversubscribe one node several times over, so the 1-node
		// level sheds hard and the 3-node levels show routing + retries
		// absorbing the same offered load.
		srv := service.New(service.Config{
			MaxInFlight: 1,
			MaxQueue:    -1,
			QueueWait:   50 * time.Millisecond,
		})
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			shutdown()
			return nil, nil, lerr
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		closers = append(closers, func() { _ = hs.Close() })
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return urls, shutdown, nil
}

// clusterPolicies are the swept routing configurations.
var clusterPolicies = []struct {
	name   string
	policy client.Policy
}{
	{"hash", client.PolicyHash},
	{"least_loaded", client.PolicyLeastLoaded},
}

func runClusterLevel(nodes []string, name string, policy client.Policy, clients int, benchtime time.Duration) (clusterLevel, error) {
	cc, err := client.NewCluster(client.ClusterConfig{
		Nodes:        nodes,
		Policy:       policy,
		Retry:        client.RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 250 * time.Millisecond},
		RetryBudget:  0.5,
		PollInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return clusterLevel{}, err
	}
	defer cc.Close()

	// 8 MiB float32 payloads, matching -serve: big enough that a request
	// occupies its admission slot across body-read blocking, so nodes
	// genuinely saturate and shed — on any host, including single-core CI
	// runners where small pure-CPU handlers would never overlap.
	data := hotpathData(2 << 20)
	rawBytes := int64(4 * len(data))
	p := client.Params{ErrorBound: 1e-3}
	ctx := context.Background()

	// Let the first poll land so routing starts from real peer states, and
	// warm every node's pools.
	cc.Membership().PollOnce(ctx)
	for range len(nodes) {
		if _, err := cc.Compress(ctx, data, p); err != nil {
			return clusterLevel{}, err
		}
	}

	shed0 := shedCount()
	retries0 := telemetry.ClusterRetries.Load()

	var (
		mu        sync.Mutex
		lats      []time.Duration
		requests  int64
		failed    int64
		firstErr  error
		wg        sync.WaitGroup
		deadline  = time.Now().Add(benchtime)
		startWall = time.Now()
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var myLats []time.Duration
			var myReqs, myFailed int64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, err := cc.Compress(ctx, data, p)
				if err != nil {
					myFailed++
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					time.Sleep(2 * time.Millisecond)
					continue
				}
				myLats = append(myLats, time.Since(t0))
				myReqs++
			}
			mu.Lock()
			lats = append(lats, myLats...)
			requests += myReqs
			failed += myFailed
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(startWall)
	if failed > 0 && firstErr != nil {
		fmt.Fprintf(os.Stderr, "cluster: %s/%d nodes: %d failed request(s), first: %v\n",
			name, len(nodes), failed, firstErr)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return float64(lats[int(p*float64(len(lats)-1))].Microseconds()) / 1e3
	}
	return clusterLevel{
		Nodes:    len(nodes),
		Policy:   name,
		Clients:  clients,
		Requests: requests,
		Failed:   failed,
		Shed:     shedCount() - shed0,
		Retries:  telemetry.ClusterRetries.Load() - retries0,
		MBs:      math.Round(float64(requests)*float64(rawBytes)/elapsed.Seconds()/1e6*100) / 100,
		P50Ms:    math.Round(pct(0.50)*100) / 100,
		P99Ms:    math.Round(pct(0.99)*100) / 100,
	}, nil
}

func runCluster(outPath, external string, benchtime time.Duration) error {
	const clients = 8
	rep := clusterReport{
		Date:       time.Now().Format("2006-01-02"),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		CPU:        cpuModel(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Commands: []string{
			fmt.Sprintf("go run ./cmd/szxbench -cluster BENCH_CLUSTER.json -benchtime %s", benchtime),
			"scripts/bench_ab.sh <baseline-ref>  # BENCH_CLUSTER=1",
		},
	}

	if external != "" {
		// External fleet: one least-loaded sweep; failures fail the process
		// — this is the CI smoke job's zero-client-visible-errors assertion.
		nodes := strings.Split(external, ",")
		rep.Note = fmt.Sprintf("external szxd fleet at %s driven by the ClusterClient (least-loaded + "+
			"retries, %d clients). failed>0 fails the run: with the smoke job killing a node "+
			"mid-load, a clean exit means retries absorbed it. Shed counts are unavailable for "+
			"external fleets (they live in the servers' own /metrics).", external, clients)
		lvl, err := runClusterLevel(nodes, "least_loaded", client.PolicyLeastLoaded, clients, benchtime)
		if err != nil {
			return err
		}
		rep.Levels = append(rep.Levels, lvl)
		if err := writeClusterReport(outPath, rep); err != nil {
			return err
		}
		if lvl.Failed > 0 {
			return fmt.Errorf("%d of %d requests failed against the external fleet", lvl.Failed, lvl.Failed+lvl.Requests)
		}
		return nil
	}

	rep.Note = fmt.Sprintf("in-process szxd fleets (1 vs 3 nodes, MaxInFlight=%d, no queue (MaxQueue=%d) "+
		"per node) under %d concurrent clients sending 8 MiB float32 compress requests (bound 1e-3) "+
		"through the ClusterClient. The 1-node level oversubscribes one admission gate (shed counts are "+
		"its 429s, absorbed by client retries); the 3-node levels compare rendezvous-hash and "+
		"least-loaded (power-of-two-choices) routing on the same offered load. "+
		"retries is the ClusterClient telemetry delta per level.",
		1, -1, clients)

	for _, n := range []int{1, 3} {
		urls, shutdown, err := startClusterNodes(n)
		if err != nil {
			return err
		}
		for _, pc := range clusterPolicies {
			// On one node every policy degenerates to "the node": sweep
			// policies only on the real fleet.
			if n == 1 && pc.name != "least_loaded" {
				continue
			}
			fmt.Fprintf(os.Stderr, "cluster: %d node(s), %s...\n", n, pc.name)
			lvl, err := runClusterLevel(urls, pc.name, pc.policy, clients, benchtime)
			if err != nil {
				shutdown()
				return fmt.Errorf("%d nodes / %s: %w", n, pc.name, err)
			}
			rep.Levels = append(rep.Levels, lvl)
		}
		shutdown()
	}
	return writeClusterReport(outPath, rep)
}

func writeClusterReport(outPath string, rep clusterReport) error {
	var sb strings.Builder
	jenc := json.NewEncoder(&sb)
	jenc.SetIndent("", "  ")
	if err := jenc.Encode(rep); err != nil {
		return err
	}
	if outPath == "-" {
		fmt.Print(sb.String())
		return nil
	}
	return os.WriteFile(outPath, []byte(sb.String()), 0o644)
}
