package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared. From one second to the next
// the same instructions can take up to twice as long, in CPU time as much
// as in wall time, because other tenants contend for the core and the
// memory system; a run of many seconds does not average that out. So every
// operation is timed next to a host speed index, read on the same CPU just
// before and just after it, and is reported at reference speed: its CPU
// time × speedNominal ÷ the mean of those two readings.
//
// The index is the geometric mean of two fixed kernels that share nothing
// with the program: a core-bound one (multiply-adds over 4 KiB, in L1) and
// a memory-bound one (a dependent pointer chase through 32 MiB). The
// simulator's work is a mix of both kinds, and on this kind of host its
// slowdowns track neither kernel alone but their geometric mean: over
// traces of every workload, scaling by it cut the spread of 25-second
// medians from up to 27% to at most 13%. A change to the program moves the
// operation's time and not the kernels', so it shows in full.
//
// The kernels run in a helper process (this binary with --speed-probe),
// so their buffers stay out of the benchmark's peak RSS and its garbage
// collector cannot run inside a reading.

// speedNominal is about the index on an uncontended core of the machine
// the benchmark was written on; it only fixes the scale of the reported
// times.
const speedNominal = 0.35 // ms

const (
	coreWords  = 1 << 9  // 4 KiB
	chaseWords = 1 << 23 // 32 MiB of uint32
	// chaseStride is odd, so i → i+chaseStride (mod chaseWords) visits every
	// slot, and each hop lands megabytes from the last, beyond any
	// prefetcher.
	chaseStride = 5184385
	chaseHops   = 4000
	// probePasses is how many passes of each kernel one reading takes the
	// median of.
	probePasses = 7
)

// speedProbe is the helper process; read asks it for one index reading.
type speedProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startSpeedProbe starts the helper process. Call it after pinning this
// process to one CPU, so the probe inherits that CPU.
func startSpeedProbe() (*speedProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{cmd: exec.Command(exe, "--speed-probe")}
	p.cmd.Stderr = os.Stderr
	// The kernel kills the probe if the benchmark dies without stopping it;
	// a closed stdin also ends it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if p.in, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.out = bufio.NewReader(out)
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	if _, err := p.read(); err != nil {
		p.stop()
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	return p, nil
}

// read returns one index reading in ms.
func (p *speedProbe) read() (float64, error) {
	if _, err := p.in.Write([]byte{'\n'}); err != nil {
		return 0, err
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(line[:len(line)-1], 64)
}

// mustRead is read for the timed loops, which have no error path: a probe
// that stopped answering stops the servers and the probe and ends the
// benchmark without a result.
func (p *speedProbe) mustRead() float64 {
	x, err := p.read()
	if err != nil {
		stopServers()
		_ = p.stop() // already failed; its exit status adds nothing
		fmt.Fprintln(os.Stderr, "perfbench: speed probe:", err)
		os.Exit(1)
	}
	return x
}

// stop closes the probe's stdin and waits for it to exit, killing it if it
// has not within five seconds.
func (p *speedProbe) stop() error {
	p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return fmt.Errorf("speed probe exited: %w", err)
		}
		return err
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		return errors.New("speed probe did not exit when asked; killed")
	}
}

// scale converts CPU milliseconds measured between index readings before
// and after to milliseconds at reference speed.
func scale(cpuMS, before, after float64) float64 {
	return cpuMS * speedNominal / ((before + after) / 2)
}

// runSpeedProbe is the helper process: for every line on stdin it prints
// one index reading, until stdin closes.
func runSpeedProbe() {
	core := make([]uint64, coreWords)
	chase := make([]uint32, chaseWords)
	for i := range chase {
		chase[i] = uint32((i + chaseStride) & (chaseWords - 1))
	}
	var pos uint32
	median := func(pass func()) float64 {
		var ts [probePasses]time.Duration
		for i := range ts {
			start := selfCPU()
			pass()
			ts[i] = selfCPU() - start
		}
		slices.Sort(ts[:])
		return ms(ts[probePasses/2])
	}
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return
		}
		c := median(func() {
			var s uint64
			for r := 0; r < 256; r++ {
				for i := range core {
					core[i] = core[i]*6364136223846793005 + uint64(i)
					s += core[(i*7919)&(coreWords-1)]
				}
			}
			probeSink += s
		})
		m := median(func() {
			p := pos
			for i := 0; i < chaseHops; i++ {
				p = chase[p]
			}
			pos = p
		})
		fmt.Printf("%g\n", math.Sqrt(c*m))
	}
}

// probeSink keeps the core kernel's result live.
var probeSink uint64

// pinToOneCPU restricts every thread of this process, and so every process
// it starts, to the first CPU it may run on: the speed probe and the work
// it scales, the server's included, then run on the same core.
func pinToOneCPU() error {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	cpu := -1
	for i := 0; i < len(mask)*64 && cpu < 0; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("no CPU in the affinity mask")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
			return e
		}
	}
	return nil
}
