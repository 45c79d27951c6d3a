package main

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// The calibration kernel is the benchmark's answer to a host whose
// speed is not constant. The sandbox this benchmark was sized on is a
// 2-vCPU guest on a shared machine: a fixed single-threaded SHA-1 loop
// switches between speed levels 30-80 % apart with dwell times of a few
// seconds, and a 12-host loopback ring slows down by more than the
// loop does. Raw wall-clock medians of identical code therefore moved
// 25-60 % between runs, which no regression bound can absorb.
//
// So every timed stretch of work (a "slice": one sim.New, the ticks
// between two strategy decisions, 20 ms of client requests) is
// bracketed by two runs of a fixed, allocation-free, stdlib-only
// kernel made of the workload's own ingredients, and the slice's
// duration is scaled by nominal/measured kernel time. The reported
// times are thus "microseconds on the reference host": the kernel's
// nominal durations below were measured on the sizing box in its fast
// state. The raw kernel time is reported as host.calib_us so a reader
// can see how far the run's host was from that reference.

// kernelSpec sizes one calibration kernel and fixes its nominal time.
type kernelSpec struct {
	// ids is how many 8-byte counters are SHA-1 hashed into 20-byte
	// identifiers and then sorted (the simulator's build path in small).
	ids int
	// echoes is how many 64-byte SHA-256-stamped round trips cross a
	// loopback TCP connection between two goroutines (the networked
	// runtime's syscall, wake-up and scheduler path in small).
	echoes int
	// nominal is the kernel's duration on the reference host.
	nominal time.Duration
}

// The kernels in use. Sizes trade measurement noise against the share
// of the run spent calibrating (3-8 %); the net kernel splits its time
// about evenly between the CPU and the echo part, the mix that tracked
// both net workloads best in sizing runs.
var (
	kernelSimSmall = kernelSpec{ids: 2048, nominal: 600 * time.Microsecond}
	kernelSimLarge = kernelSpec{ids: 16384, nominal: 5500 * time.Microsecond}
	kernelNet      = kernelSpec{ids: 1536, echoes: 32, nominal: 800 * time.Microsecond}
)

// mark is one kernel run: when it started and ended, on the harness
// clock.
type mark struct {
	start, end time.Duration
}

// calIDs sorts the kernel's identifiers; it is held by pointer so
// handing it to sort.Sort allocates nothing.
type calIDs struct {
	v [][sha1.Size]byte
}

func (c *calIDs) Len() int           { return len(c.v) }
func (c *calIDs) Less(i, j int) bool { return bytes.Compare(c.v[i][:], c.v[j][:]) < 0 }
func (c *calIDs) Swap(i, j int)      { c.v[i], c.v[j] = c.v[j], c.v[i] }

// calibrator runs the kernel on demand and keeps every run as a mark.
// It is used from one goroutine at a time.
type calibrator struct {
	spec  kernelSpec
	ids   calIDs
	echo  *echoPair
	marks []mark
	sink  byte
	// err is the first echo failure; a run whose calibrator failed has
	// no meaningful times, so runners check it when a phase ends.
	err error
}

// newCalibrator prepares a kernel; marksHint sizes the mark log so
// recording a mark never allocates during a timed phase.
func newCalibrator(spec kernelSpec, marksHint int) (*calibrator, error) {
	c := &calibrator{
		spec:  spec,
		ids:   calIDs{v: make([][sha1.Size]byte, spec.ids)},
		marks: make([]mark, 0, marksHint),
	}
	if spec.echoes > 0 {
		e, err := newEchoPair()
		if err != nil {
			return nil, err
		}
		c.echo = e
	}
	return c, nil
}

// close stops the echo goroutine, if any, and waits for it.
func (c *calibrator) close() {
	if c.echo != nil {
		c.echo.close()
	}
}

// mark runs the kernel once and returns the new mark's index.
func (c *calibrator) mark() int {
	start := sinceStart()
	var b [8]byte
	for i := range c.ids.v {
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		c.ids.v[i] = sha1.Sum(b[:])
	}
	sort.Sort(&c.ids)
	if len(c.ids.v) > 0 {
		c.sink ^= c.ids.v[len(c.ids.v)/2][0]
	}
	if c.echo != nil && c.err == nil {
		c.err = c.echo.roundTrips(c.spec.echoes)
	}
	c.marks = append(c.marks, mark{start: start, end: sinceStart()})
	return len(c.marks) - 1
}

// scale is the factor that turns wall time spent between marks k and
// k+1 into reference-host time: nominal over the mean of the two
// bracketing kernel runs.
func (c *calibrator) scale(k int) float64 {
	a, b := c.marks[k], c.marks[k+1]
	measured := float64((a.end-a.start)+(b.end-b.start)) / 2
	if measured <= 0 {
		return 1
	}
	return float64(c.spec.nominal) / measured
}

// between sums the wall time spent between marks from and to (the
// kernel runs themselves excluded), raw and scaled to the reference
// host slice by slice.
func (c *calibrator) between(from, to int) (raw, norm time.Duration) {
	for k := from; k < to; k++ {
		d := c.marks[k+1].start - c.marks[k].end
		raw += d
		norm += time.Duration(float64(d) * c.scale(k))
	}
	return raw, norm
}

// medianMicros is the median raw kernel duration in microseconds: the
// host-speed diagnostic printed in the run header.
func (c *calibrator) medianMicros() float64 {
	v := make([]float64, len(c.marks))
	for i, m := range c.marks {
		v[i] = float64(m.end-m.start) / 1e3
	}
	return median(v)
}

// echoPair is a loopback TCP connection with an echo goroutine on the
// far side; roundTrips drives it from the caller's goroutine.
type echoPair struct {
	conn net.Conn
	done chan struct{}
	buf  [64]byte
}

// newEchoPair listens on an ephemeral loopback port, dials it and
// starts the echo goroutine, which runs until close.
func newEchoPair() (*echoPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration echo: %w", err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close() // the dial error is the one worth reporting
		return nil, fmt.Errorf("calibration echo: %w", err)
	}
	far, err := ln.Accept()
	_ = ln.Close() // one connection is all the pair needs
	if err != nil {
		_ = conn.Close() // as above
		return nil, fmt.Errorf("calibration echo: %w", err)
	}
	done := make(chan struct{})
	e := &echoPair{conn: conn, done: done}
	go func() {
		defer close(done)
		defer func() { _ = far.Close() }()
		var buf [64]byte
		for {
			if _, err := io.ReadFull(far, buf[:]); err != nil {
				return // the near side closed: the pair is done
			}
			sum := sha256.Sum256(buf[:])
			copy(buf[:], sum[:])
			if _, err := far.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	return e, nil
}

// roundTrips sends n stamped messages and waits for each echo.
func (e *echoPair) roundTrips(n int) error {
	for i := 0; i < n; i++ {
		sum := sha256.Sum256(e.buf[:])
		copy(e.buf[:], sum[:])
		if _, err := e.conn.Write(e.buf[:]); err != nil {
			return fmt.Errorf("calibration echo write: %w", err)
		}
		if _, err := io.ReadFull(e.conn, e.buf[:]); err != nil {
			return fmt.Errorf("calibration echo read: %w", err)
		}
	}
	return nil
}

// close shuts the connection and waits for the echo goroutine to exit.
func (e *echoPair) close() {
	_ = e.conn.Close() // closing is the stop signal; nothing to report
	<-e.done
}
