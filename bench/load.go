package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The open-loop clients run in a load process of their own: this binary,
// started with loadEnv set. Clients that share a Go runtime with the
// system under test wait for a free P whenever the system keeps every
// core busy: on a 2-core box a client sleeping until its due time woke up
// to 15ms late at p99. In a process of its own at the same priority it
// still woke up to 4ms late, and 3ms with the system at nice 19. So once
// the load process runs, the benchmark process moves its own threads to
// the SCHED_IDLE policy: the kernel preempts them as soon as a client
// wakes, and on a quiet host the clients keep to within 0.3ms of their
// schedule at p99. The system still has every core while the clients
// sleep. A host that deschedules the virtual CPUs still delays wake-ups
// by milliseconds; Result.Late shows it.

// loadEnv, set in the environment, makes this binary the load process.
const loadEnv = "TRUTHDISCOVERY_BENCH_LOAD"

// stream is one open-loop request stream, as the load process runs it.
type stream struct {
	Name    string
	URL     string
	Rate    float64
	Workers int
	// Salt separates the streams' random draws.
	Salt uint64
	// Request n posts Writes[n % len(Writes)] to /v1/claims?wait=1 when
	// Write is set. Otherwise it reads the full table when TableEvery > 0
	// divides n, else /v1/trust when Trust is set, else one object's
	// answers on route Point, carrying the last ETag the stream saw for
	// the object in If-None-Match when Revalidate is set.
	Write      bool
	TableEvery int
	Trust      bool
	Point      string
	Revalidate bool
	// IDBase numbers the stream's client spans in a traced phase.
	IDBase uint64
}

// loadSpec is one phase's streams; they run side by side for Seconds.
type loadSpec struct {
	Seed    int64
	Seconds float64
	Traced  bool
	Objects []string
	Writes  [][]byte
	Streams []stream
}

// loadMsg is one line the load process writes: a sampled point response
// while the streams run, then their results.
type loadMsg struct {
	Sample  *sample            `json:",omitempty"`
	Results map[string]*Result `json:",omitempty"`
}

// sample is one point response in a hundred, which the benchmark checks
// against the view that served it while the view is still recent.
type sample struct {
	Stream, Key, ETag string
	Body              []byte
}

// loadMain is the load process: it runs each spec read from in and
// answers on out, until in closes. It runs Go code on one P, so it
// preempts the system on at most one core at a time: on two, read-mix's
// point-read p90 rose from 0.4ms to 1.5ms.
func loadMain(in io.Reader, out io.Writer) error {
	runtime.GOMAXPROCS(1)
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(out)
	var mu sync.Mutex
	var writeErr error
	emit := func(m loadMsg) {
		mu.Lock()
		defer mu.Unlock()
		if writeErr == nil {
			writeErr = enc.Encode(m)
		}
	}
	for {
		var spec loadSpec
		if err := dec.Decode(&spec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("reading a load spec: %w", err)
		}
		res := runStreams(&spec, func(s *sample) { emit(loadMsg{Sample: s}) })
		emit(loadMsg{Results: res})
		mu.Lock()
		err := writeErr
		mu.Unlock()
		if err != nil {
			return fmt.Errorf("writing to the benchmark: %w", err)
		}
	}
}

// runStreams runs the spec's streams side by side and returns their
// results by name.
func runStreams(spec *loadSpec, emit func(*sample)) map[string]*Result {
	d := time.Duration(spec.Seconds * float64(time.Second))
	out := make(map[string]*Result, len(spec.Streams))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range spec.Streams {
		st := &spec.Streams[i]
		p := &Pacer{BaseURL: st.URL, Rate: st.Rate, Workers: st.Workers, Traced: spec.Traced, IDBase: st.IDBase,
			Next: st.requests(spec, emit)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := p.Run(d)
			mu.Lock()
			out[st.Name] = res
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// requests returns the function that makes the stream's request n.
func (st *stream) requests(spec *loadSpec, emit func(*sample)) func(n int) Request {
	var mu sync.Mutex
	etags := make(map[string]string)
	return func(n int) Request {
		if st.Write {
			return Request{Route: "write", Method: http.MethodPost, Path: "/v1/claims?wait=1",
				Body: spec.Writes[n%len(spec.Writes)]}
		}
		switch {
		case st.TableEvery > 0 && n%st.TableEvery == 0:
			return Request{Route: "table", Method: http.MethodGet, Path: "/v1/answers"}
		case st.Trust:
			return Request{Route: "trust", Method: http.MethodGet, Path: "/v1/trust"}
		}
		key := spec.Objects[mix(spec.Seed, st.Salt, n)%uint64(len(spec.Objects))]
		rq := Request{Route: st.Point, Method: http.MethodGet, Path: "/v1/answers/" + key}
		if st.Revalidate {
			mu.Lock()
			if etag, ok := etags[key]; ok {
				rq.Header = map[string]string{"If-None-Match": etag}
			}
			mu.Unlock()
		}
		checked := n%100 == 0
		rq.Done = func(status int, hdr http.Header, body []byte) {
			if status != http.StatusOK {
				return
			}
			if st.Revalidate {
				mu.Lock()
				etags[key] = hdr.Get("ETag")
				mu.Unlock()
			}
			if checked {
				emit(&sample{Stream: st.Name, Key: key, ETag: hdr.Get("ETag"), Body: append([]byte(nil), body...)})
			}
		}
		return rq
	}
}

// mix derives a uniform draw for request n of the stream salted by salt.
func mix(seed int64, salt uint64, n int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ salt<<32 ^ uint64(n)
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// loader is the benchmark's end of the load process.
type loader struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// startLoader starts the load process and then lowers this process's CPU
// priority, in that order, so that the load process keeps the default
// one.
func startLoader() (*loader, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), loadEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the load process: %w", err)
	}
	l := &loader{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(bufio.NewReader(stdout))}
	if err := lowerPriority(); err != nil {
		l.close()
		return nil, fmt.Errorf("lowering the benchmark's CPU priority: %w", err)
	}
	return l, nil
}

// run has the load process run spec and returns each stream's result.
// check sees every sampled point response as it arrives; run returns the
// first error it reports.
func (l *loader) run(spec *loadSpec, check func(*sample) error) (map[string]*Result, error) {
	if err := l.enc.Encode(spec); err != nil {
		return nil, fmt.Errorf("sending the load spec: %w", err)
	}
	var checkErr error
	for {
		var m loadMsg
		if err := l.dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("reading from the load process: %w", err)
		}
		if m.Sample == nil {
			return m.Results, checkErr
		}
		if err := check(m.Sample); err != nil && checkErr == nil {
			checkErr = err
		}
	}
}

// close ends the load process and waits for it to exit.
func (l *loader) close() error {
	l.stdin.Close()
	return l.cmd.Wait()
}

// lowerPriority moves every thread of this process to the SCHED_IDLE
// policy. Linux keeps the policy per thread, and a new thread inherits its
// creator's, so the pass repeats until it finds no thread it has not set.
func lowerPriority() error {
	const schedIdle = 5 // SCHED_IDLE
	var param struct{ priority int32 }
	done := make(map[int]bool)
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil || done[tid] {
				continue
			}
			fresh = true
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle,
				uintptr(unsafe.Pointer(&param)))
			// A thread that exits meanwhile is no longer there to set.
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setscheduler(%d, SCHED_IDLE): %w", tid, errno)
			}
			done[tid] = true
		}
		if !fresh {
			return nil
		}
	}
}
