package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"
)

// The reference unit. After every op the client runs a fixed unit of
// reference work, made of what the machine can be slow at:
//
//   - kernelCalls calls of refLane.kernel: arithmetic, hashing, allocation;
//   - on the workloads that go over a socket, echoCalls round trips on a
//     loopback connection this directory owns: system calls and goroutine
//     wake-ups, which a slow spell stretches several times more than it
//     stretches arithmetic;
//   - on the workloads that keep both processors busy, the kernel calls
//     split over two goroutines (lanes), because then the time depends on
//     the second processor being free.
//
// Every gated timing is reported as
//
//	x_norm = x * nominal(unit) / measured_r(unit)
//
// where measured_r is the mean time a unit took in the same round as x
// and nominal is kernelCalls*RefNominalUS/lanes + echoCalls*EchoNominalUS.
// The two constants are the call times on the quiet machine this
// benchmark was defined on. They only fix the unit of the normalised
// metrics; they are never to be edited by a change that claims a gain.
const (
	RefNominalUS  = 12.5
	EchoNominalUS = 13.0
)

// refUnit is the reference work that follows every op of a workload.
type refUnit struct {
	kernelCalls, echoCalls int
	lanes                  int // 1 or 2
}

func (u refUnit) nominalNS() float64 {
	return (float64(u.kernelCalls)*RefNominalUS/float64(u.lanes) + float64(u.echoCalls)*EchoNominalUS) * 1e3
}

// refAllocs is the exact number of heap objects one kernel call
// allocates; the measurement loop subtracts it from the op counters.
const refAllocs = 16

const (
	refHashBytes = 8 << 10
	refDim       = 96
)

// The kernel's inputs, shared and read-only after init.
var (
	refBuf [refHashBytes]byte
	refMat [refDim * refDim]float64
	refVec [refDim]float64
)

// refLane is what one goroutine running the kernel writes to. Keeping
// the results reachable stops the compiler from dropping the work.
type refLane struct {
	out  [refDim]float64
	keep [refAllocs]*[8]uint64
	sink float64
}

func init() {
	for i := range refBuf {
		refBuf[i] = byte(i*7 + 3)
	}
	for i := range refMat {
		refMat[i] = float64(i%13)*0.125 - 0.75
	}
	for i := range refVec {
		refVec[i] = float64(i%7)*0.25 - 0.5
	}
}

// kernel is the fixed piece of work the timings are divided by: the same
// blend the system under test is made of (hashing, float64 multiply-add,
// small allocations), in stdlib-only code this directory owns, so no
// product change can move it.
func (l *refLane) kernel() {
	sum := sha256.Sum256(refBuf[:])
	for r := 0; r < refDim; r++ {
		row := refMat[r*refDim : (r+1)*refDim]
		acc := 0.0
		for c, v := range row {
			acc += v * refVec[c]
		}
		l.out[r] = acc
	}
	for i := range l.keep {
		p := new([8]uint64)
		p[0] = uint64(sum[i])
		l.keep[i] = p
	}
	l.sink += l.out[int(sum[0])%refDim]
}

// echoSize is the payload of one echo round trip.
const echoSize = 64

// echo is the socket half of the reference unit: a loopback TCP
// connection whose far end is a goroutine that writes back what it reads.
type echo struct {
	near, far net.Conn
	done      chan struct{}
	buf       [echoSize]byte
}

func newEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	// The listener's backlog completes the handshake, so dialling before
	// accepting does not block.
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		near.Close()
		return nil, err
	}
	e := &echo{near: near, far: far, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		var b [echoSize]byte
		for {
			if _, err := io.ReadFull(far, b[:]); err != nil {
				return
			}
			if _, err := far.Write(b[:]); err != nil {
				return
			}
		}
	}()
	return e, nil
}

// call is one round trip.
func (e *echo) call() error {
	if _, err := e.near.Write(e.buf[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(e.near, e.buf[:])
	return err
}

// close ends the far end and waits for it.
func (e *echo) close() {
	e.near.Close()
	e.far.Close()
	<-e.done
}

// reference runs reference units: it owns the echo connection, the
// caller's lane and a helper goroutine with the second lane.
type reference struct {
	echo   *echo
	lane   refLane
	helper chan int      // kernel calls for the second lane
	helped chan struct{} // the second lane finished them
	done   chan struct{}
}

func newReference() (*reference, error) {
	e, err := newEcho()
	if err != nil {
		return nil, err
	}
	r := &reference{echo: e, helper: make(chan int), helped: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		var lane refLane
		for n := range r.helper {
			for i := 0; i < n; i++ {
				lane.kernel()
			}
			r.helped <- struct{}{}
		}
	}()
	return r, nil
}

// close stops the helper and the echo's far end and waits for both.
func (r *reference) close() {
	close(r.helper)
	<-r.done
	r.echo.close()
}

// kernels runs n kernel calls over the given number of lanes.
func (r *reference) kernels(n, lanes int) {
	if lanes == 2 {
		r.helper <- n / 2
		n -= n / 2
	}
	for i := 0; i < n; i++ {
		r.lane.kernel()
	}
	if lanes == 2 {
		<-r.helped
	}
}

// run runs one unit starting at start and returns the time its kernel
// calls and its echoes took, and when it ended. The echoes are spread
// between the kernel calls, so that each finds the far end parked the way
// a request finds the server.
func (r *reference) run(u refUnit, start time.Time) (kernel, echo time.Duration, end time.Time, err error) {
	t, done := start, 0
	for j := 0; j < u.echoCalls; j++ {
		if err := r.echo.call(); err != nil {
			return 0, 0, t, fmt.Errorf("reference echo: %w", err)
		}
		mid := time.Now()
		upto := (u.kernelCalls*(j+1) + u.echoCalls - 1) / u.echoCalls
		r.kernels(upto-done, u.lanes)
		done = upto
		end := time.Now()
		echo += mid.Sub(t)
		kernel += end.Sub(mid)
		t = end
	}
	if done < u.kernelCalls {
		r.kernels(u.kernelCalls-done, u.lanes)
		end := time.Now()
		kernel += end.Sub(t)
		t = end
	}
	return kernel, echo, t, nil
}

// calibrate measures what one kernel call allocates, so that the
// subtraction in the measurement loop is exact, and refuses to run when
// the object count is not the frozen refAllocs per kernel call and none
// for an echo or for using the second lane.
func (r *reference) calibrate() (bytesPerKernelCall float64, err error) {
	const n = 1000
	u := refUnit{kernelCalls: 2, echoCalls: 1, lanes: 2}
	for i := 0; i < 10; i++ {
		if _, _, _, err := r.run(u, time.Now()); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if _, _, _, err := r.run(u, time.Now()); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	calls := float64(n * u.kernelCalls)
	// The runtime's own goroutines allocate a little now and then; a
	// changed kernel would be off by one object or more.
	if got := float64(m1.Mallocs-m0.Mallocs) / calls; got < refAllocs || got > refAllocs+0.1 {
		return 0, fmt.Errorf("reference unit allocates %.3f objects per kernel call, want %d", got, refAllocs)
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / calls, nil
}
