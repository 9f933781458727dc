package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat. Linux
// reports them in USER_HZ ticks, which is 100 on every supported port.
const userHZ = 100

// parseStatCPU extracts utime+stime from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(string(stat[end+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// parseStatusKB extracts one "<field>:  <n> kB" line from the contents
// of /proc/<pid>/status, e.g. VmHWM or VmRSS.
func parseStatusKB(status []byte, field string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: unexpected value %q", field, rest)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// selfPID names this process in /proc.
const selfPID = -1

// procDir is the /proc directory of process pid.
func procDir(pid int) string {
	if pid == selfPID {
		return "/proc/self"
	}
	return "/proc/" + strconv.Itoa(pid)
}

func procFile(pid int, name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(procDir(pid), name))
}

// parseSchedstat extracts the on-CPU time, in nanoseconds, from the
// contents of a /proc/<pid>/task/<tid>/schedstat file (its first field).
func parseSchedstat(b []byte) (time.Duration, error) {
	f := strings.Fields(string(b))
	if len(f) < 1 {
		return 0, fmt.Errorf("proc schedstat: empty")
	}
	ns, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// procCPU is the CPU time (user+system) process pid has used so far:
// the scheduler's nanosecond run time summed over the process's
// threads, or, where the kernel keeps no schedstat, utime+stime from
// /proc/<pid>/stat at 10 ms resolution.
func procCPU(pid int) (time.Duration, error) {
	dir := filepath.Join(procDir(pid), "task")
	var total time.Duration
	tasks, err := os.ReadDir(dir)
	for _, t := range tasks {
		b, rerr := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if rerr != nil {
			if os.IsNotExist(rerr) && total > 0 {
				continue // a thread that exited under the walk
			}
			err = rerr
			break
		}
		d, perr := parseSchedstat(b)
		if perr != nil {
			err = perr
			break
		}
		total += d
	}
	if err == nil && total > 0 {
		return total, nil
	}
	b, err := procFile(pid, "stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procMB reads a kB field of /proc/<pid>/status in MB (10^6 bytes are
// not used anywhere here: MB is 1024 kB, as VmHWM itself counts).
func procMB(pid int, field string) (float64, error) {
	b, err := procFile(pid, "status")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, field)
	return float64(kb) / 1024, err
}

// selfCPU is this process's CPU time at microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMask is a CPU affinity mask as the kernel takes it.
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// pinProcess restricts every thread of process pid to cpus. Threads
// started later inherit the mask of the thread that starts them, so
// the task list is walked until a pass finds nothing new.
func pinProcess(pid int, cpus []int) error {
	if len(cpus) == 0 {
		return fmt.Errorf("no CPUs to pin to")
	}
	dir := filepath.Join(procDir(pid), "task")
	m := maskOf(cpus)
	done := map[string]bool{}
	for pass := 0; pass < 8; pass++ {
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		fresh := 0
		for _, t := range tasks {
			if done[t.Name()] {
				continue
			}
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
			done[t.Name()] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
	return nil
}

// harnessCPUs and serverCPUs divide the CPUs this process may use
// between the harness (the first half, at least one) and the server
// child (the rest; the same single CPU when there is only one). Set by
// pinSelf, before the harness narrows its own mask.
var harnessCPUs, serverCPUs []int

// pinSelf computes the split and pins the harness to its half. When
// pinning is not permitted nobody is pinned and the result says so.
func pinSelf() {
	cpus := allowedCPUs()
	harnessCPUs, serverCPUs = cpus, cpus
	if len(cpus) >= 2 {
		harnessCPUs, serverCPUs = cpus[:len(cpus)/2], cpus[len(cpus)/2:]
	}
	pinned = pinProcess(selfPID, harnessCPUs) == nil
}

// hostBlock is the provenance every result carries.
type hostBlock struct {
	CPUModel        string  `json:"cpu_model"`
	NProc           int     `json:"nproc"`
	HarnessMaxProcs int     `json:"gomaxprocs_harness"`
	ServerMaxProcs  int     `json:"gomaxprocs_server"`
	Conns           int     `json:"conns"`
	HarnessCPUs     []int   `json:"harness_cpus"`
	ServerCPUs      []int   `json:"server_cpus"`
	Pinned          bool    `json:"pinned"`
	GoVersion       string  `json:"go_version"`
	Kernel          string  `json:"kernel"`
	Commit          string  `json:"git_commit"`
	DataDir         string  `json:"data_dir"`
	DataDirFS       string  `json:"data_dir_fs"`
	Seed            int64   `json:"seed"`
	Scale           float64 `json:"scale"`
	Sleep1msP50US   float64 `json:"sleep_1ms_p50_us"`
}

// pinned records whether the harness managed to pin itself.
var pinned bool

// loadShape is the fixed split of the machine between the load
// generator and the server child (see README: it is part of the
// benchmark, not a tunable).
func loadShape() (harnessProcs, serverProcs, conns int) {
	n := runtime.NumCPU()
	return max(1, n/2), max(1, n-n/2), min(n, 4)
}

// sleepP50 measures how long a 1 ms sleep really takes: the pacer's
// tick, and the granularity of every timer in the server under test.
func sleepP50(samples int) float64 {
	v := make([]float64, samples)
	for i := range v {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		v[i] = float64(time.Since(t0)) / 1e3
	}
	return median(v)
}

// fsOf names the filesystem type holding path, from the mount table.
func fsOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), f[2]
		}
	}
	return fs
}

// newHostBlock gathers the provenance of a run.
func newHostBlock(dataDir string, seed int64, scale float64) hostBlock {
	hp, sp, conns := loadShape()
	h := hostBlock{
		HarnessCPUs: harnessCPUs, ServerCPUs: serverCPUs, Pinned: pinned,
		CPUModel: "unknown", NProc: runtime.NumCPU(),
		HarnessMaxProcs: hp, ServerMaxProcs: sp, Conns: conns,
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
		DataDir: dataDir, DataDirFS: fsOf(dataDir), Seed: seed, Scale: scale,
		Sleep1msP50US: sleepP50(100),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	git := exec.Command("git", "rev-parse", "HEAD")
	if cwd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	}
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
