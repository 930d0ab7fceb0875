package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is recorded next to every set of numbers: a ledger entry
// without its machine is not comparable with anything.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	StateFS    string `json:"state_fs"`
}

// results is the content of results.json.
type results struct {
	Env       environment `json:"environment"`
	Seed      int64       `json:"seed"`
	Traced    bool        `json:"traced"`
	Workloads []*report   `json:"workloads"`
}

func readEnvironment(stateDir string) environment {
	return environment{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		StateFS:    fsType(stateDir),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit asks git, best effort: a checkout without history says "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir: the mount in /proc/mounts with
// the longest mount point that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if len(mount) >= len(best) && (abs == mount || mount == "/" || strings.HasPrefix(abs, mount+"/")) {
			best, fs = mount, f[2]
		}
	}
	return fs
}

// printReport writes one line per metric: workload metric value unit n.
func printReport(out io.Writer, rep *report) {
	set := rep.EndToEnd
	if rep.Traced {
		set = rep.PerLayer
	}
	for _, m := range set {
		fmt.Fprintf(out, "%-22s %-28s %s\n", rep.Workload, m.Name, m)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(out, "%-22s FAILED %s\n", rep.Workload, f)
	}
}

func loadResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

func (res *results) workload(name string) *report {
	for _, rep := range res.Workloads {
		if rep.Workload == name {
			return rep
		}
	}
	return nil
}
