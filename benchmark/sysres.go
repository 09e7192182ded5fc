package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every Linux the repo targets.
const clockTick = 100

// cpuTime returns the CPU time (user + system) this process has used so
// far plus that of the listed live child processes. getrusage's
// RUSAGE_CHILDREN covers only children already waited for, so live ones
// are read from /proc.
func cpuTime(children []int) time.Duration {
	var ru syscall.Rusage
	total := time.Duration(0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		total = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, pid := range children {
		total += procCPU(pid)
	}
	return total
}

func procCPU(pid int) time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, _ := strconv.ParseInt(f[12], 10, 64) // field 15
	return time.Duration(utime+stime) * time.Second / clockTick
}

// peakRSSMB returns the summed peak resident set (VmHWM) of this process
// and the listed children, in MB.
func peakRSSMB(children []int) float64 {
	total := procStatusKB("self", "VmHWM:")
	for _, pid := range children {
		total += procStatusKB(strconv.Itoa(pid), "VmHWM:")
	}
	return float64(total) / 1024
}

func procStatusKB(pid, field string) int64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, field) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// resources is a point-in-time reading of what the benchmark process
// (and the cluster's child processes) have consumed.
type resources struct {
	cpu        time.Duration
	allocBytes uint64
	gcPause    time.Duration
}

func readResources(children []int) resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:        cpuTime(children),
		allocBytes: ms.TotalAlloc,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// fsType names the filesystem holding dir, from /proc/mounts (longest
// mount point that prefixes the path).
func fsType(dir string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
			best, bestLen = f[2], len(mp)
		}
	}
	return best
}
