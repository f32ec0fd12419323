package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"time"
)

// The host this benchmark runs on is shared, and its co-tenants slow the
// daemon by 10–40% for minutes at a time. Longer runs do not average that
// out, and no commit causes it. A host probe runs alongside the measured
// work and says how fast the host runs code right now; the end-to-end
// times are reported scaled to probeRefNs: what the run would have
// measured had the host run at that speed throughout.
//
// Every probePeriod the probe times two fixed integer loops. One is a
// single dependent chain, bound by instruction latency; the other runs
// four independent chains, bound by issue throughput. A co-tenant on the
// same core slows the first little and the second a lot, and the
// daemon's code sits between the two: on a 2-vCPU host, the log of a
// job's time followed the log of the geometric mean of the two loops'
// median times with a slope of 0.8–1.2 (r 0.8–0.97, fixed-work jobs of
// three kinds in 5–20 s windows), where each loop alone gave slopes
// near 2.5 and 0.6. The reading is that geometric mean, in ns per
// iteration.
//
// The probe is a process of its own (this binary, started with probeEnv
// set), so the daemon's garbage collector and scheduler never pause it
// mid-sample. Its reading while a workload loads both CPUs is within 2%
// of its reading while they idle, so the daemon's own work barely moves
// it.
const (
	probeEnv    = "GENESYS_BENCH_PROBE"
	probeIters  = 20000
	probePeriod = 25 * time.Millisecond
	// probeRefNs is the reference reading, about the probe's reading on
	// a 2-vCPU host with quiet co-tenants.
	probeRefNs = 2.7
)

// hostProbe is a running probe process.
type hostProbe struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   bytes.Buffer
	ended bool
	ns    float64 // reading, once ended
	n     int     // samples behind it
	err   error
}

// startProbe starts the probe process. It samples until its standard
// input closes, which end does, or which this process's exit does.
func startProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &hostProbe{cmd: exec.Command(exe)}
	p.cmd.Env = append(os.Environ(), probeEnv+"=1")
	p.cmd.Stdout, p.cmd.Stderr = &p.out, os.Stderr
	if p.stdin, err = p.cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	return p, nil
}

// end stops the probe, waits for it to exit, and returns its reading in
// ns per iteration and the number of samples behind it. Later calls
// return the same.
func (p *hostProbe) end() (float64, int, error) {
	if p.ended {
		return p.ns, p.n, p.err
	}
	p.ended = true
	p.stdin.Close()
	if p.err = p.cmd.Wait(); p.err != nil {
		p.err = fmt.Errorf("host probe: %w", p.err)
	} else if _, err := fmt.Sscan(p.out.String(), &p.ns, &p.n); err != nil || p.n < 1 {
		p.err = fmt.Errorf("host probe printed %q", p.out.String())
	}
	return p.ns, p.n, p.err
}

// probeMain makes this process a host probe, and exits when it is done,
// if startProbe started it as one.
func probeMain() {
	if os.Getenv(probeEnv) == "" {
		return
	}
	if err := runProbe(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench: host probe:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runProbe is the probe process: it samples until in reaches its end,
// then prints the reading and the sample count to out. It always takes
// at least one sample.
func runProbe(in io.Reader, out io.Writer) error {
	closed := make(chan struct{})
	go func() {
		// A read error ends sampling just as the end of input does.
		_, _ = io.Copy(io.Discard, in)
		close(closed)
	}()
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	var (
		latency, throughput []float64
		a, b, c, d          = uint64(1), uint64(2), uint64(3), uint64(4)
	)
	for {
		start := time.Now()
		for i := 0; i < probeIters; i++ {
			a ^= a << 13
			a ^= a >> 7
			a ^= a << 17
		}
		mid := time.Now()
		for i := 0; i < probeIters; i++ {
			b ^= b << 13
			c ^= c << 13
			d ^= d << 13
			a ^= a << 13
			b ^= b >> 7
			c ^= c >> 7
			d ^= d >> 7
			a ^= a >> 7
			b ^= b << 17
			c ^= c << 17
			d ^= d << 17
			a ^= a << 17
		}
		latency = append(latency, float64(mid.Sub(start).Nanoseconds())/probeIters)
		throughput = append(throughput, float64(time.Since(mid).Nanoseconds())/probeIters)
		select {
		case <-closed:
			w := bufio.NewWriter(out)
			reading := math.Sqrt(quantile(latency, 0.5) * quantile(throughput, 0.5))
			// The chains are printed so the loops cannot be optimised away.
			fmt.Fprintf(w, "%s %d %d\n", formatValue(reading), len(latency), a^b^c^d)
			return w.Flush()
		case <-tick.C:
		}
	}
}
