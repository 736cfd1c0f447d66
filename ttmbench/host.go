package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process (Linux clear_refs "5"). Where that is not permitted the
// mark keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB
// since the last resetPeakRSS, or NaN where /proc does not report it.
func peakRSSMB() float64 {
	kb, ok := procStatusKB("VmHWM")
	if !ok {
		return math.NaN()
	}
	return float64(kb) * 1024 / 1e6
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/self/status.
func procStatusKB(key string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		return n, err == nil
	}
	return 0, false
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostRecord describes the machine a result was measured on.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func host() hostRecord {
	return hostRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
}
