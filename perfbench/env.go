package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment records where a result came from, so numbers from
// different machines or source trees are never compared silently.
func environment(root string) map[string]string {
	env := map[string]string{
		"cpu_model":  cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
		"platform":   runtime.GOOS + "/" + runtime.GOARCH,
		"mem_total":  procField("/proc/meminfo", "MemTotal"),
		"git_commit": gitCommit(root),
	}
	if d, err := sourceDigest(root); err == nil {
		env["source_sha256"] = d
	} else {
		env["source_sha256"] = "error: " + err.Error()
	}
	return env
}

func cpuModel() string {
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// procField returns the value of the first "key: value" line in a /proc
// file, or "" when there is none.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitCommit resolves HEAD without running git; a checkout exported from
// git has no .git and reports "none" (source_sha256 then identifies it).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if c, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(c))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root in path
// order, skipping hidden directories.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuTimes returns the machine's total and stolen CPU time from
// /proc/stat, in clock ticks.
func cpuTimes() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t [2]float64
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t[0] += v
		if i == 7 {
			t[1] = v
		}
	}
	return t
}

// stealFrac is the share of CPU time the hypervisor took from this
// machine since since was read: high values mean the numbers are noisy.
func stealFrac(since [2]float64) float64 {
	now := cpuTimes()
	if now[0] <= since[0] {
		return 0
	}
	return (now[1] - since[1]) / (now[0] - since[0])
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	v := strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
