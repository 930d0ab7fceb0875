// Command bench is the repository's benchmark: five workloads from the
// paper's table rows to allocd under drift, ten end-to-end metrics with
// regression bounds, per-layer metrics from one traced run, and a checker
// that fails any operation whose output is wrong. See README.md.
//
//	go run ./bench run     [-seed 1] [-workload NAME] [-out DIR] [-keep]
//	go run ./bench trace   [-seed 1] [-workload NAME] [-out DIR] [-keep]
//	go run ./bench compare A.json B.json
//	go run ./bench measure --workload NAME --seed N --seconds S --trace 0|1
//
// run is the untraced run every end-to-end number comes from; trace repeats
// the workloads at a third of the operations with a span around every call
// into a layer; compare applies the regression bounds to two results files;
// measure is the single-workload entry point BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"fragalloc/internal/model"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench run|trace|compare|measure [flags]")
		return 2
	}
	runtime.GOMAXPROCS(opProcs)
	var err error
	code := 0
	switch args[0] {
	case "run":
		code, err = cmdRun(args[1:], false)
	case "trace":
		code, err = cmdRun(args[1:], true)
	case "compare":
		code, err = cmdCompare(args[1:])
	case "measure":
		code, err = cmdMeasure(args[1:])
	default:
		err = fmt.Errorf("unknown command %q", args[0])
		code = 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

const (
	defaultOut     = "bench/out"
	resultsFile    = "results.json"
	tracedFile     = "trace-results.json"
	overheadMetric = "trace.overhead_ratio"
)

// cmdRun is `bench run` and `bench trace`. With one workload named it runs
// in this process; with none it starts one process per workload, so each
// gets its own heap and its own peak-RSS reading, and merges their files.
func cmdRun(args []string, traced bool) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the scenario sampling and the drift stream")
	name := fs.String("workload", "", "run only this workload (default: all five, one process each)")
	out := fs.String("out", defaultOut, "directory for the results and scratch state")
	keep := fs.Bool("keep", false, "leave the scratch input and state directories for inspection")
	part := fs.Bool("part", false, "internal: this is one workload's process of a run over all of them")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}
	verb, file := "run", resultsFile
	if traced {
		verb, file = "trace", tracedFile
	}
	res := &results{Env: readEnvironment(*out), Seed: *seed, Traced: traced}

	if *name != "" {
		sp, ok := findSpec(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		ops := sp.ops
		if traced {
			ops = (ops + 2) / 3
		}
		rep, err := runWorkload(sp, runConfig{seed: *seed, evalSeed: *seed, ops: ops, traced: traced, root: *out, keep: *keep})
		if err != nil {
			return 1, err
		}
		printReport(os.Stdout, rep)
		if traced {
			if err := model.SaveJSON(filepath.Join(*out, "trace-"+sp.name+".json"), rep.spans); err != nil {
				return 1, err
			}
		}
		res.Workloads = append(res.Workloads, rep)
	} else {
		self, err := os.Executable()
		if err != nil {
			return 1, err
		}
		for _, sp := range specs {
			part := filepath.Join(*out, "part-"+sp.name)
			childArgs := []string{verb, "-part", "-seed", fmt.Sprint(*seed), "-workload", sp.name, "-out", part}
			if *keep {
				childArgs = append(childArgs, "-keep")
			}
			cmd := exec.Command(self, childArgs...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			partRes, err := loadResults(filepath.Join(part, file))
			if err != nil {
				return 1, fmt.Errorf("%s: %v (%v)", sp.name, runErr, err)
			}
			res.Workloads = append(res.Workloads, partRes.Workloads...)
			if traced {
				trace := "trace-" + sp.name + ".json"
				if err := os.Rename(filepath.Join(part, trace), filepath.Join(*out, trace)); err != nil {
					return 1, err
				}
			}
			if !*keep {
				if err := os.RemoveAll(part); err != nil {
					return 1, err
				}
			}
		}
	}

	if traced && !*part {
		reportOverhead(res, filepath.Join(*out, resultsFile))
	}
	if err := model.SaveJSON(filepath.Join(*out, file), res); err != nil {
		return 1, err
	}
	for _, rep := range res.Workloads {
		if rep.Failed > 0 {
			return 1, fmt.Errorf("%s: %d of %d operations failed the output check", rep.Workload, rep.Failed, rep.Attempted)
		}
	}
	return 0, nil
}

// reportOverhead divides each traced workload's solve_s or adopt_p50_ms by
// the untraced run's, when an untraced results file is there to compare
// with. allocd_flood has neither: its rate depends on how many updates have
// grown the state, so a run a third as long does not compare.
func reportOverhead(traced *results, untracedPath string) {
	untraced, err := loadResults(untracedPath)
	if err != nil {
		fmt.Printf("%-22s %-28s n/a (no untraced %s; run `bench run` first)\n", "*", overheadMetric, untracedPath)
		return
	}
	for _, rep := range traced.Workloads {
		base := untraced.workload(rep.Workload)
		if base == nil {
			continue
		}
		for _, name := range []string{"solve_s", "adopt_p50_ms"} {
			t, ok1 := rep.EndToEnd.get(name)
			u, ok2 := base.EndToEnd.get(name)
			if !ok1 || !ok2 {
				continue
			}
			rep.PerLayer.add(overheadMetric, t.Value/u.Value, "ratio", t.N)
			m, _ := rep.PerLayer.get(overheadMetric)
			fmt.Printf("%-22s %-28s %s  (traced/untraced %s)\n", rep.Workload, overheadMetric, m, name)
		}
	}
}

func cmdCompare(args []string) (int, error) {
	if len(args) != 2 {
		return 2, fmt.Errorf("usage: bench compare A.json B.json")
	}
	base, err := loadResults(args[0])
	if err != nil {
		return 1, err
	}
	candidate, err := loadResults(args[1])
	if err != nil {
		return 1, err
	}
	if n := compareResults(os.Stdout, base, candidate); n > 0 {
		return 1, fmt.Errorf("%d bound(s) breached", n)
	}
	return 0, nil
}

// canonicalSeed is the seed measure gives the in-sample scenarios and the
// drift stream. Branch and bound is chaotic in its inputs: another observed
// set or drift stream is another problem (W/V of tpcds_robust_r5 ranges
// 3.0–3.75 over ten seeds, its solve time ±20%), not another sample of the
// same one, so no bound a regression gate could use would hold across seeds.
// measure therefore keeps what the solver works on fixed and lets --seed
// draw the out-of-sample sets; `bench run -seed` varies everything.
const canonicalSeed = 1

// cmdMeasure is the entry point BENCHMARK.json names: one workload, measured
// for --seconds, with one JSON object as the last line of standard output.
// Untraced it reports the end-to-end metrics every workload defines; traced
// it reports every per-layer metric, zero where the workload never reaches
// the layer.
func cmdMeasure(args []string) (int, error) {
	fs := flag.NewFlagSet("bench measure", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the out-of-sample scenario sets")
	seconds := fs.Int("seconds", 10, "length of the measured part (an allocd workload: as sized on the reference machine)")
	traced := fs.Int("trace", 0, "1 = traced run, per-layer metrics")
	out := fs.String("out", defaultOut, "directory for scratch state")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	sp, ok := findSpec(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}
	cfg := runConfig{seed: canonicalSeed, evalSeed: *seed, traced: *traced == 1, root: *out}
	cfg.ops, cfg.box = sp.sizeFor(*seconds, cfg.traced)
	rep, err := runWorkload(sp, cfg)
	if err != nil {
		return 1, err
	}
	printReport(os.Stderr, rep)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if *traced == 1 {
		for _, pl := range perLayer {
			m, _ := rep.PerLayer.get(pl.name)
			metrics[pl.name] = value{Value: m.Value, Unit: pl.unit}
		}
	} else {
		for _, name := range driverEndToEnd {
			m, ok := rep.EndToEnd.get(name)
			if !ok {
				return 1, fmt.Errorf("%s: metric %s was not measured (%d of %d operations failed)", sp.name, name, rep.Failed, rep.Attempted)
			}
			metrics[name] = value{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}
