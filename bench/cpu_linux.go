//go:build linux

package main

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

func cpuOf(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the user+system CPU time of the whole process.
func processCPU() time.Duration { return cpuOf(syscall.RUSAGE_SELF) }

// threadCPU is the user+system CPU time of the calling OS thread; the
// caller must hold runtime.LockOSThread for the figure to mean anything.
func threadCPU() time.Duration { return cpuOf(syscall.RUSAGE_THREAD) }

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func affinity(call uintptr, tid int, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// cpuSplit divides the CPUs the process may run on between the generator
// (the highest-numbered one) and everything else. Left to itself the kernel
// sometimes wakes the monitor's reader on the generator's CPU and sometimes
// on another, which made whole runs fall into one of two modes (trust p50
// 51 us or 65 us on the reference box); with the split every datagram
// crosses CPUs in every run.
type cpuSplit struct {
	all, gen, rest cpuMask
	ok             bool
}

func splitCPUs() cpuSplit {
	var s cpuSplit
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &s.all); err != nil {
		return s
	}
	n := 0
	for w := len(s.all) - 1; w >= 0; w-- {
		n += bits.OnesCount64(s.all[w])
		if s.all[w] != 0 && s.gen == (cpuMask{}) {
			s.gen[w] = 1 << (63 - bits.LeadingZeros64(s.all[w]))
		}
	}
	for w := range s.all {
		s.rest[w] = s.all[w] &^ s.gen[w]
	}
	s.ok = n >= 2
	return s
}

// everyThread applies a mask to all threads of the process; threads
// created later inherit it from their creator.
func everyThread(m *cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_ = affinity(syscall.SYS_SCHED_SETAFFINITY, tid, m) // a thread may have exited
		}
	}
}

// confine moves the whole process off the generator's CPU; pinGenerator
// then moves the calling (locked) thread onto it; release undoes confine.
func (s cpuSplit) confine() {
	if s.ok {
		everyThread(&s.rest)
	}
}

func (s cpuSplit) pinGenerator() {
	if s.ok {
		_ = affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &s.gen) // unpinned is slower, not wrong
	}
}

func (s cpuSplit) release() {
	if s.ok {
		everyThread(&s.all)
	}
}

// cpus lists the CPU numbers set in the mask.
func (m *cpuMask) cpus() []int {
	var out []int
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// schedIdle is SCHED_IDLE: a thread under it runs only when nothing else on
// its CPU wants to, and any waking thread preempts it at once.
const schedIdle = 5

// spinEnv carries the CPU list to the spinner child: the benchmark starts
// itself again with it set.
const spinEnv = "WANFD_BENCH_SPIN"

// idleSpinner keeps the monitor's CPUs from halting. An idle vCPU of the
// reference guest halts, and the next datagram then waits for the
// hypervisor to schedule it again: 40 to 50 us of a 55-us trust latency,
// and nearly all of its run-to-run spread, were that wake-up and not the
// program (README, "Three ideas", the third). A child process spinning at
// SCHED_IDLE on each of those CPUs keeps them awake, as idle=poll on the
// kernel command line would, and yields to the monitor whenever it has
// something to do. Being another process, its CPU time is not the
// monitor's.
type idleSpinner struct {
	cmd   *exec.Cmd
	stdin io.Closer
}

func startIdleSpinner(s cpuSplit) (*idleSpinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: idle spinner: %w", err)
	}
	monitor := s.rest
	if !s.ok {
		monitor = s.all // one CPU: the generator and the monitor share it
	}
	var list []string
	for _, c := range monitor.cpus() {
		list = append(list, strconv.Itoa(c))
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("bench: idle spinner: cannot tell which CPUs the process may use")
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), spinEnv+"="+strings.Join(list, ","))
	cmd.Stderr = os.Stderr
	// The child spins until its standard input closes, which it does when
	// this process ends, however it ends.
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("bench: idle spinner: %w", err)
	}
	ready, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("bench: idle spinner: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: idle spinner: %w", err)
	}
	sp := &idleSpinner{cmd: cmd, stdin: stdin}
	// One byte says every spinning thread is in place; end of file instead
	// says the child gave up (its reason is on standard error).
	if _, err := ready.Read(make([]byte, 1)); err != nil {
		sp.stop()
		return nil, fmt.Errorf("bench: idle spinner did not start")
	}
	return sp, nil
}

// stop ends the child and waits for it.
func (sp *idleSpinner) stop() {
	_ = sp.stdin.Close() // the child exits on end of file; Kill makes sure
	_ = sp.cmd.Process.Kill()
	_ = sp.cmd.Wait() // "signal: killed" is the expected way out
}

// spinIfChild turns the process into the spinner when it was started as
// one, and never returns then.
func spinIfChild() {
	list := os.Getenv(spinEnv)
	if list == "" {
		return
	}
	fields := strings.Split(list, ",")
	runtime.GOMAXPROCS(len(fields) + 1)
	started := make(chan error)
	for _, f := range fields {
		cpu, err := strconv.Atoi(f)
		if err != nil || cpu < 0 || cpu >= 64*len(cpuMask{}) {
			fmt.Fprintf(os.Stderr, "bench: idle spinner: bad CPU %q\n", f)
			os.Exit(2)
		}
		go func() {
			runtime.LockOSThread()
			var m cpuMask
			m[cpu/64] = 1 << (cpu % 64)
			err := affinity(syscall.SYS_SCHED_SETAFFINITY, 0, &m)
			if err == nil {
				var param int32 // sched_param{sched_priority: 0}
				if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
					err = errno
				}
			}
			started <- err
			for {
			}
		}()
	}
	for range fields {
		if err := <-started; err != nil {
			fmt.Fprintf(os.Stderr, "bench: idle spinner: %v\n", err)
			os.Exit(1)
		}
	}
	_, _ = os.Stdout.Write([]byte{1})
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(0)
}
