package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord is what a result must carry to be compared with another: the
// code, the toolchain, the host and the run shape.
type envRecord struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Transport  string  `json:"transport"`
	DataFS     string  `json:"data_fs"`
	FsyncUS    float64 `json:"env_fsync_us"`
	CPURefUS   float64 `json:"env_cpu_ref_us"`
	Seed       uint64  `json:"seed"`
	WindowS    int     `json:"window_s"`
	Slices     int     `json:"slices"`
	Clients    int     `json:"clients"`
}

// env owns the run's scratch space: every data directory lives under one
// temporary root that is removed on exit.
type env struct {
	root string
}

func newEnv() (*env, error) {
	root, err := os.MkdirTemp("", "spitz-bench-")
	if err != nil {
		return nil, err
	}
	return &env{root: root}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.root) }

// dataDir creates a fresh data directory for one opened instance.
func (e *env) dataDir(prefix string) (string, error) {
	return os.MkdirTemp(e.root, prefix+"-")
}

func (e *env) record(seed uint64, window, slices, clients int) envRecord {
	return envRecord{
		Commit:     commitOf(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transport:  "tcp",
		DataFS:     fsType(e.root),
		FsyncUS:    e.fsyncUS(),
		CPURefUS:   cpuRefUS(),
		Seed:       seed,
		WindowS:    window,
		Slices:     slices,
		Clients:    clients,
	}
}

// commitOf reports the VCS revision the binary was built from, when the
// build saw one (the driver's checkouts are not git repositories).
func commitOf() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// fsyncUS is the device floor under every durable commit: the median of
// 15 raw 4 KiB write+fsync calls in the data root.
func (e *env) fsyncUS() float64 {
	f, err := os.CreateTemp(e.root, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// cpuRefUS times a fixed piece of CPU work — SHA-256 over 1 MiB, median of
// 7 — so a result file records how fast the shared host was when the run
// started. Runs whose reference differs were not measured on the same
// machine, whatever the hardware.
func cpuRefUS() float64 {
	buf := make([]byte, 1<<20)
	var us []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		buf[0] = sha256.Sum256(buf)[0]
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssMiB is the current resident set size.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
