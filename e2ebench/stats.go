package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number, with the sample it was computed from:
// how many values, and their quartiles.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// dist reports the q-quantile of xs.
func dist(name, unit string, xs []float64, q float64) metric {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metric{Name: name, Unit: unit, Value: quantile(s, q), Samples: len(s),
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// scalar reports a value computed from n underlying observations.
func scalar(name, unit string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Value: v, Samples: n, Q1: v, Median: v, Q3: v}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssMB reads a resident-set field of /proc/self/status (VmRSS, VmHWM).
func rssMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// environment is recorded with every run so that runs on different hosts
// or commits are never compared by accident.
type environment struct {
	Host       string `json:"host"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func currentEnvironment(o options) environment {
	host, _ := os.Hostname()
	return environment{Host: host, CPU: cpuModel(), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit(), SourceHash: sourceHash("."),
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commit names the checked-out commit when the working directory is the
// root of a git work tree, and "unknown" otherwise (git is not asked to
// search the directories above).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the Go sources and module files under root (the
// working directory, which run.sh leaves at the repository root), which
// identifies the code measured even where no commit is known.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
