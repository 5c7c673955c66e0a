package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// commit is stamped at build time by run.sh (-ldflags -X main.commit=…).
var commit = "unknown"

// hostInfo identifies the machine and runtime a run measured. Runs are
// comparable only when everything but Commit matches.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

// gcPercent is Go's default GOGC: allocation savings must show.
const gcPercent = 100

// pinRuntime fixes the runtime settings results depend on, whatever
// the caller's environment says: GOMAXPROCS is the CPU count, and the
// collector runs at the default pace with no memory limit.
func pinRuntime() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(math.MaxInt64)
}

func currentHost() hostInfo {
	var u syscall.Utsname
	kernel, arch := "unknown", runtime.GOARCH
	if syscall.Uname(&u) == nil {
		kernel = cstring(u.Release[:])
		arch = cstring(u.Machine[:])
	}
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gcPercent,
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Arch:       arch,
		Commit:     commit,
	}
}

func cstring[T int8 | uint8](b []T) string {
	s := make([]byte, 0, len(b))
	for _, c := range b {
		if c == 0 {
			break
		}
		s = append(s, byte(c))
	}
	return string(s)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // fails only for a bad who or pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
