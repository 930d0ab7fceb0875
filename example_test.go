package fragalloc_test

import (
	"fmt"
	"log"
	"math/rand"

	"fragalloc"
	"fragalloc/internal/mip"
)

// Define a small workload by hand, compute a memory-efficient allocation
// onto two replica nodes, and inspect the result.
func Example() {
	// A toy web-shop database split into six column fragments.
	w := &fragalloc.Workload{
		Name: "webshop",
		Fragments: []fragalloc.Fragment{
			{ID: 0, Name: "orders.id", Size: 400},
			{ID: 1, Name: "orders.total", Size: 800},
			{ID: 2, Name: "orders.date", Size: 400},
			{ID: 3, Name: "customers.id", Size: 100},
			{ID: 4, Name: "customers.region", Size: 200},
			{ID: 5, Name: "items.price", Size: 300},
		},
		Queries: []fragalloc.Query{
			// Revenue report: scans order totals by date.
			{ID: 0, Name: "revenue", Fragments: []int{1, 2}, Cost: 8, Frequency: 1},
			// Regional dashboard: joins orders and customers.
			{ID: 1, Name: "regional", Fragments: []int{0, 3, 4}, Cost: 5, Frequency: 1},
			// Price check: items only.
			{ID: 2, Name: "prices", Fragments: []int{5}, Cost: 2, Frequency: 1},
			// Order lookup.
			{ID: 3, Name: "lookup", Fragments: []int{0, 2}, Cost: 1, Frequency: 1},
		},
	}

	// Distribute the workload over K = 2 nodes, minimizing the stored data
	// while each node processes exactly half the load.
	res, err := fragalloc.Allocate(w, nil, 2, fragalloc.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replication factor W/V = %.3f (1.0 would be a perfect split)\n", res.ReplicationFactor)
	for k, frags := range res.Allocation.Fragments {
		fmt.Printf("node %d stores:\n", k)
		for _, i := range frags {
			fmt.Printf("  %-18s %5.0f bytes\n", w.Fragments[i].Name, w.Fragments[i].Size)
		}
	}
	fmt.Println("query routing (share of each query per node):")
	for j, q := range w.Queries {
		fmt.Printf("  %-10s", q.Name)
		for k := 0; k < res.Allocation.K; k++ {
			fmt.Printf("  node%d=%.2f", k, res.Allocation.Shares[0][j][k])
		}
		fmt.Println()
	}

	// Verify the balance: each node carries exactly 1/2 of the cost.
	loads := res.Allocation.NodeLoads(w, w.DefaultFrequencies(), 0)
	fmt.Printf("node load shares: %.3f (target 0.500 each)\n", loads)
	// Output:
	// replication factor W/V = 1.182 (1.0 would be a perfect split)
	// node 0 stores:
	//   orders.total         800 bytes
	//   orders.date          400 bytes
	// node 1 stores:
	//   orders.id            400 bytes
	//   orders.date          400 bytes
	//   customers.id         100 bytes
	//   customers.region     200 bytes
	//   items.price          300 bytes
	// query routing (share of each query per node):
	//   revenue     node0=1.00  node1=0.00
	//   regional    node0=0.00  node1=1.00
	//   prices      node0=0.00  node1=1.00
	//   lookup      node0=0.00  node1=1.00
	// node load shares: [0.500 0.500] (target 0.500 each)
}

// Build the paper's TPC-DS workload (N = 425 column fragments, Q = 94 query
// templates), allocate it onto K = 4 nodes with three approaches — greedy
// baseline, exact LP, and LP with partial clustering — and compare their
// memory consumption, mirroring Tables 1a and 2a of the paper at example
// scale. A node budget, not a time limit, bounds each solve, so the result
// does not depend on how fast the machine is.
func Example_tpcds() {
	const k = 4
	w := fragalloc.TPCDSWorkload()
	fmt.Printf("TPC-DS SF-1: %d fragments (%.1f GB accessed), %d queries\n",
		w.NumFragments(), w.AccessedDataSize()/1e9, w.NumQueries())

	// 1. Greedy baseline (Rabl & Jacobsen).
	gAlloc, err := fragalloc.GreedyAllocate(w, nil, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s W/V = %.3f\n", "greedy baseline:", gAlloc.ReplicationFactor(w))

	// 2. The paper's LP-based approach, exact (single chunk).
	mipOpt := mip.Options{MaxNodes: 100}
	res, err := fragalloc.Allocate(w, nil, k, fragalloc.Options{MIP: mipOpt})
	if err != nil {
		log.Fatal(err)
	}
	note := ""
	if !res.Exact {
		note = fmt.Sprintf("   (budget-bound, gap <= %.3f W/V)", res.MaxGap)
	}
	fmt.Printf("%-24s W/V = %.3f%s\n", "LP exact:", res.ReplicationFactor, note)

	// 3. Partial clustering: pin the 36 lowest-load queries to node 0 and
	// let the LP place the heavy rest — a far smaller problem, similar
	// memory.
	clu, err := fragalloc.Allocate(w, nil, k, fragalloc.Options{FixedQueries: 36, MIP: mipOpt})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s W/V = %.3f   (F=36 queries pinned)\n", "LP partial clustering:", clu.ReplicationFactor)

	// What does each node store?
	fmt.Println("per-node data (partial clustering):")
	for node := 0; node < k; node++ {
		fmt.Printf("  node %d: %6.2f GB, %3d fragments\n",
			node, clu.Allocation.NodeSize(w, node)/1e9, len(clu.Allocation.Fragments[node]))
	}

	// All three allocations balance the f=1 workload: the worst-case load
	// share under optimal routing is 1/K.
	fmt.Println("worst-case load share under optimal routing (ideal = 1/K):")
	for _, row := range []struct {
		name  string
		alloc *fragalloc.Allocation
	}{
		{"greedy", gAlloc},
		{"LP exact", res.Allocation},
		{"LP clustering", clu.Allocation},
	} {
		l, err := fragalloc.WorstLoad(w, row.alloc, w.DefaultFrequencies())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s L~ = %.4f (1/K = %.4f)\n", row.name, l, 1.0/k)
	}
	// Output:
	// TPC-DS SF-1: 425 fragments (1.6 GB accessed), 94 queries
	// greedy baseline:         W/V = 2.026
	// LP exact:                W/V = 1.720   (budget-bound, gap <= 1.380 W/V)
	// LP partial clustering:   W/V = 1.544   (F=36 queries pinned)
	// per-node data (partial clustering):
	//   node 0:   1.63 GB, 250 fragments
	//   node 1:   0.21 GB,  52 fragments
	//   node 2:   0.40 GB,  74 fragments
	//   node 3:   0.29 GB,  53 fragments
	// worst-case load share under optimal routing (ideal = 1/K):
	//   greedy         L~ = 0.2500 (1/K = 0.2500)
	//   LP exact       L~ = 0.2500 (1/K = 0.2500)
	//   LP clustering  L~ = 0.2500 (1/K = 0.2500)
}

// Optimize one allocation for S potential workload scenarios and verify it
// against unseen ones — the Section 4.2 methodology of the paper at example
// scale. Three ways to prepare for uncertain workloads on K = 4 nodes:
//
//   - optimize only for the expected workload (S = 1): cheapest, fragile;
//   - the paper's approach with S = 5 diversified scenarios: a little more
//     memory, much better out-of-sample balance;
//   - full replication: perfectly robust, maximal memory.
func Example_robust() {
	const k, s, unseen = 4, 5, 25
	w := fragalloc.TPCDSWorkload()
	mipOpt := mip.Options{MaxNodes: 100}

	// Unseen workloads the allocations will be judged on. Different seed
	// than the in-sample set: these are genuinely out-of-sample.
	out := fragalloc.OutOfSampleScenarios(w, unseen, fragalloc.DefaultPresence, 99)

	type row struct {
		name  string
		alloc *fragalloc.Allocation
		repl  float64
	}
	var rows []row

	// 1. Expected-workload-only optimization (S = 1).
	single, err := fragalloc.Allocate(w, nil, k, fragalloc.Options{FixedQueries: 36, MIP: mipOpt})
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{"S=1 (expected only)", single.Allocation, single.ReplicationFactor})

	// 2. The paper's robust approach: S diversified scenarios.
	seen := fragalloc.InSampleScenarios(w, s, fragalloc.DefaultPresence, 7)
	robust, err := fragalloc.Allocate(w, seen, k, fragalloc.Options{FixedQueries: 36, MIP: mipOpt})
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{fmt.Sprintf("S=%d (robust)", s), robust.Allocation, robust.ReplicationFactor})

	// 3. Full replication: the brute-force upper bound.
	full := fragalloc.FullReplication(w, k)
	rows = append(rows, row{"full replication", full, full.ReplicationFactor(w)})

	// E(L~)-1/K is the average overload of the busiest node (0 = perfectly
	// balanced); E((1/K)/L~) is the expected throughput relative to a
	// perfectly balanced cluster (1.0 = no loss).
	fmt.Printf("K=%d, verified against %d unseen workload scenarios (p=%.2f)\n", k, unseen, fragalloc.DefaultPresence)
	fmt.Printf("%-22s %8s %12s %16s\n", "approach", "W/V", "E(L~)-1/K", "E((1/K)/L~)")
	for _, r := range rows {
		m, err := fragalloc.Evaluate(w, r.alloc, out)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8.3f %12.4f %16.3f\n", r.name, r.repl, m.MeanGap, m.MeanThroughput)
	}
	// Output:
	// K=4, verified against 25 unseen workload scenarios (p=0.75)
	// approach                    W/V    E(L~)-1/K      E((1/K)/L~)
	// S=1 (expected only)       1.544       0.0938            0.745
	// S=5 (robust)              2.014       0.0511            0.847
	// full replication          4.000       0.0000            1.000
}

// A cluster is provisioned for today's workload; the workload then drifts
// (reporting queries become 10× hotter, interactive ones go quiet). The
// example measures how the allocation degrades, and how a
// partial-clustering re-allocation restores balance — the "dynamic settings
// with quick recalculations" motivation of the paper's introduction.
func Example_whatif() {
	const k = 6
	w := fragalloc.AccountingWorkload()
	// The accounting workload at full scale (Q = 4461): partial clustering
	// keeps all but the 100 heaviest templates pinned, which is what makes
	// repeated re-allocation affordable.
	opt := fragalloc.Options{
		FixedQueries: w.NumQueries() - 100,
		Chunks:       fragalloc.MustParseChunks("3+3"),
		MIP:          mip.Options{MaxNodes: 50},
	}

	today := w.DefaultFrequencies()
	res, err := fragalloc.Allocate(w, fragalloc.SingleScenarioSet(today), k, opt)
	if err != nil {
		log.Fatal(err)
	}
	l, err := fragalloc.WorstLoad(w, res.Allocation, today)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provisioned for today's trace: W/V=%.3f, worst node load %.4f (ideal %.4f)\n",
		res.ReplicationFactor, l, 1.0/k)

	// The workload drifts: month-end closing makes some reporting templates
	// hot, and a quarter of the interactive templates go quiet.
	rng := rand.New(rand.NewSource(11))
	drifted := append([]float64(nil), today...)
	for j := range drifted {
		switch {
		case w.Queries[j].Cost > 50 && rng.Float64() < 0.3:
			drifted[j] *= 10 // month-end reporting surge
		case rng.Float64() < 0.25:
			drifted[j] = 0 // template goes quiet
		}
	}

	l, err = fragalloc.WorstLoad(w, res.Allocation, drifted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after drift, unchanged allocation: worst node load %.4f (%.0f%% over ideal)\n",
		l, (l*k-1)*100)
	fmt.Printf("  => cluster throughput drops to %.0f%% of capacity\n", 100/(l*k))

	// Re-allocate against the drifted trace. Only still-active templates
	// can be pinned, so recompute F from the trace.
	active := 0
	for j := range drifted {
		if drifted[j] > 0 && w.Queries[j].Cost > 0 {
			active++
		}
	}
	reOpt := opt
	reOpt.FixedQueries = active - 100
	re, err := fragalloc.Allocate(w, fragalloc.SingleScenarioSet(drifted), k, reOpt)
	if err != nil {
		log.Fatal(err)
	}
	l, err = fragalloc.WorstLoad(w, re.Allocation, drifted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-allocated: W/V=%.3f, worst node load %.4f\n", re.ReplicationFactor, l)

	// How much data must move? Compare per-node fragment sets.
	var moved float64
	for node := 0; node < k; node++ {
		oldSet := map[int]bool{}
		for _, i := range res.Allocation.Fragments[node] {
			oldSet[i] = true
		}
		for _, i := range re.Allocation.Fragments[node] {
			if !oldSet[i] {
				moved += w.Fragments[i].Size
			}
		}
	}
	fmt.Printf("data to ship for the migration: %.2f GB (%.1f%% of stored data)\n",
		moved/1e9, 100*moved/re.Allocation.TotalData(w))
	// Output:
	// provisioned for today's trace: W/V=1.493, worst node load 0.1667 (ideal 0.1667)
	// after drift, unchanged allocation: worst node load 0.3671 (120% over ideal)
	//   => cluster throughput drops to 45% of capacity
	// re-allocated: W/V=1.664, worst node load 0.1667
	// data to ship for the migration: 63.92 GB (34.2% of stored data)
}
