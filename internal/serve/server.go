package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"truthdiscovery/internal/fusion"
)

// Server answers queries from an immutable View held in an atomic
// pointer. Handlers load the pointer once per request and read only that
// view, so a concurrent Swap is invisible to in-flight requests and reads
// never take a lock. A server starts empty (503 from every data endpoint)
// until the first Swap.
//
// The HTTP surface is versioned under /v1/ (see Handler). Responses from
// the answer and trust endpoints carry a strong ETag derived from the
// served store version, so a client that revalidates with If-None-Match
// pays one integer comparison — not a body encode — until a refresh swap
// rotates the version.
type Server struct {
	view        atomic.Pointer[View]
	requests    atomic.Uint64
	notModified atomic.Uint64
	swaps       atomic.Uint64
	lastSwap    atomic.Int64 // unix seconds of the latest swap
	started     time.Time
	topo        atomic.Pointer[Topology]
	plans       plannerRing
	extraStats  atomic.Pointer[func() map[string]any]

	// ing, when set before Handler is used, enables POST /v1/claims.
	ing *Ingester
}

// SetExtraStats contributes additional top-level /v1/stats entries —
// the distributed coordinator reports its round/broadcast timings here.
func (s *Server) SetExtraStats(fn func() map[string]any) { s.extraStats.Store(&fn) }

// NewServer returns an empty server; Swap publishes the first view.
func NewServer() *Server {
	return &Server{started: time.Now()}
}

// SetIngester enables the live claim-ingest endpoint (POST /v1/claims).
// Must be called before the handler serves traffic; a nil ingester (the
// default) answers 503 on the endpoint.
func (s *Server) SetIngester(ing *Ingester) { s.ing = ing }

// Swap atomically publishes a new view. In-flight requests keep reading
// the view they loaded; new requests see the new one.
func (s *Server) Swap(v *View) {
	s.view.Store(v)
	s.swaps.Add(1)
	s.lastSwap.Store(time.Now().Unix())
}

// View returns the currently served view (nil before the first Swap).
func (s *Server) View() *View { return s.view.Load() }

// answerJSON is the wire form of one fused answer. Kind-specific payload
// fields (num/gran for Number and Time, text for Text) carry the exact
// value — float64 renders as the shortest representation that parses
// back to the identical bits — while "value" is the human rendering.
// The router decodes worker payloads into it; appendJSON encodes it.
type answerJSON struct {
	Object    string  `json:"object"`
	Attribute string  `json:"attribute"`
	Value     string  `json:"value"`
	Kind      string  `json:"kind"`
	Num       float64 `json:"num"`
	Gran      float64 `json:"gran"`
	Text      string  `json:"text,omitempty"`
	Support   int     `json:"support"`
	Providers int     `json:"providers"`
}

func answerToJSON(a *fusion.Answer) answerJSON {
	return answerJSON{
		Object:    a.ObjectKey,
		Attribute: a.Attribute,
		Value:     a.Value.String(),
		Kind:      a.Value.Kind.String(),
		Num:       a.Value.Num,
		Gran:      a.Value.Gran,
		Text:      a.Value.Text,
		Support:   a.Support,
		Providers: a.Providers,
	}
}

// answersHeader is the envelope shared by /answers and /answers/{object}:
// answersBody writes its wire form, and the router decodes worker
// payloads into it.
type answersHeader struct {
	Version uint64       `json:"version"`
	Method  string       `json:"method"`
	Day     int          `json:"day"`
	Label   string       `json:"label"`
	Count   int          `json:"count"`
	Answers []answerJSON `json:"answers"`
}

// errUnencodable is the encoder's failure: a NaN or ±Inf number, which
// JSON cannot carry (a hostile claims file can fuse one).
var errUnencodable = errors.New("serve: answer not representable as JSON")

// answersBody encodes the answers wire form of v's header and n answers,
// the k-th being answer(k). The bytes are exactly what encoding/json's
// Encoder with SetEscapeHTML(false) writes for the answersHeader, the
// trailing newline included, except that an empty list is always [],
// never null.
func answersBody(v *View, n int, answer func(k int) answerJSON) ([]byte, error) {
	// An encoded Stock answer takes about 130 bytes.
	dst := make([]byte, 0, 128+160*n)
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, v.Version, 10)
	dst = append(dst, `,"method":`...)
	dst = appendJSONString(dst, v.Method)
	dst = append(dst, `,"day":`...)
	dst = strconv.AppendInt(dst, int64(v.Day), 10)
	dst = append(dst, `,"label":`...)
	dst = appendJSONString(dst, v.Label)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, `,"answers":[`...)
	for k := 0; k < n; k++ {
		if k > 0 {
			dst = append(dst, ',')
		}
		a := answer(k)
		var err error
		if dst, err = a.appendJSON(dst); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendJSON appends the answer as one JSON object; an answer whose num
// or gran is NaN or ±Inf, which JSON cannot carry, is an error.
func (a *answerJSON) appendJSON(dst []byte) ([]byte, error) {
	for _, f := range [2]float64{a.Num, a.Gran} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, errUnencodable
		}
	}
	dst = append(dst, `{"object":`...)
	dst = appendJSONString(dst, a.Object)
	dst = append(dst, `,"attribute":`...)
	dst = appendJSONString(dst, a.Attribute)
	dst = append(dst, `,"value":`...)
	dst = appendJSONString(dst, a.Value)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, a.Kind)
	dst = append(dst, `,"num":`...)
	dst = appendJSONFloat(dst, a.Num)
	dst = append(dst, `,"gran":`...)
	dst = appendJSONFloat(dst, a.Gran)
	if a.Text != "" {
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, a.Text)
	}
	dst = append(dst, `,"support":`...)
	dst = strconv.AppendInt(dst, int64(a.Support), 10)
	dst = append(dst, `,"providers":`...)
	dst = strconv.AppendInt(dst, int64(a.Providers), 10)
	return append(dst, '}'), nil
}

// appendJSONFloat appends a finite f as encoding/json does: the
// shortest decimal that round-trips, in 'f' form for 1e-6 <= |f| < 1e21
// and 'e' form otherwise with a one-digit negative exponent unpadded
// (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a quoted JSON string the way
// encoding/json does with HTML escaping off: `"` and `\` backslashed,
// \b \f \n \r \t by name, other control bytes as \u00XX, each invalid
// UTF-8 byte as \ufffd, and U+2028 / U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Handler returns the versioned query and ingest API:
//
//	GET  /v1/healthz            liveness + current version
//	GET  /v1/methods            the method roster and the serving method
//	GET  /v1/answers            every fused answer (ETag/If-None-Match)
//	GET  /v1/answers/{object}   one object's answers (404 when unknown)
//	GET  /v1/trust              the per-source trust vector (ETag)
//	GET  /v1/stats              serving + ingest counters + topology
//	POST /v1/claims             batched claim upserts/retractions
//	                            (?wait=1 or Prefer: wait blocks until
//	                            the batch's delta publishes)
//
// The pre-v1 unprefixed paths, kept as deprecated aliases for one
// release, are gone: they answer 410 with the error envelope and a
// use_v1 code naming the /v1 replacement. Errors are a uniform JSON
// envelope {"error":{"code","message"}}; wrong methods answer 405 with
// an Allow header, unknown paths and objects 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	register := func(path string, method string, h http.HandlerFunc) {
		mux.HandleFunc("/v1"+path, s.allow(method, h))
		if path != "/claims" {
			// The removed pre-v1 alias: a machine-matchable pointer to
			// the /v1 path, not a silent 404.
			mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
				writeError(w, http.StatusGone, "use_v1",
					"the unprefixed paths were removed; use /v1"+r.URL.Path)
			})
		}
	}
	register("/healthz", http.MethodGet, s.handleHealthz)
	register("/methods", http.MethodGet, s.handleMethods)
	register("/answers", http.MethodGet, s.handleAnswers)
	register("/answers/{object}", http.MethodGet, s.handleObject)
	register("/trust", http.MethodGet, s.handleTrust)
	register("/stats", http.MethodGet, s.handleStats)
	register("/claims", http.MethodPost, s.handleClaims)
	// Everything unmatched is an enveloped 404, not net/http's plain text.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint "+r.URL.Path)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// allow gates a handler to one HTTP method, answering an enveloped 405
// (with the Allow header RFC 9110 requires) for anything else. GET
// endpoints also accept HEAD — net/http strips the body for us, so the
// caller still gets the real headers (ETag included).
func (s *Server) allow(method string, h http.HandlerFunc) http.HandlerFunc {
	allowed := method
	if method == http.MethodGet {
		allowed = "GET, HEAD"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", allowed)
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				r.Method+" is not allowed here; use "+allowed)
			return
		}
		h(w, r)
	}
}

// errorEnvelope is the uniform error body of every non-2xx response:
// {"error":{"code":"...","message":"..."}}. Codes are stable,
// machine-matchable strings; messages are for humans.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{Code: code, Message: message}})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	// Encode before writing the status line: a payload JSON cannot carry
	// (a NaN/Inf value fused from a hostile claims file) must surface as
	// a 500, not a 200 with a torn body.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		writeUnencodable(w)
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeAnswers sends an encoded answers body, or the 500 envelope when
// the encoder failed.
func writeAnswers(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		writeUnencodable(w)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func writeUnencodable(w http.ResponseWriter) {
	writeError(w, http.StatusInternalServerError, "internal", "response not representable as JSON")
}

// writeBody sends a JSON body encoded in full, with its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// loadView resolves the served view, answering 503 while none is
// published yet.
func (s *Server) loadView(w http.ResponseWriter) (*View, bool) {
	v := s.view.Load()
	if v == nil {
		writeError(w, http.StatusServiceUnavailable, "no_view", "no fused run is being served yet")
		return nil, false
	}
	return v, true
}

// cacheControl is sent with every cacheable response: the body may be
// stored but must be revalidated on each use — revalidation is one
// If-None-Match integer comparison against the served version, so "fresh
// forever until the version rotates" is exactly what no-cache buys.
const cacheControl = "no-cache"

// conditional stamps the view's version-keyed ETag and Cache-Control on
// the response and reports whether the request's If-None-Match already
// names that version — in which case a 304 with no body has been written
// and the handler is done. The ETag and any body the caller encodes come
// from the same view pointer, so a concurrent swap can never produce a
// tag from one version and a body from another.
func (s *Server) conditional(w http.ResponseWriter, r *http.Request, v *View) bool {
	etag := v.ETag()
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", cacheControl)
	if ifNoneMatchHits(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// ifNoneMatchHits reports whether an If-None-Match header value matches
// the entity tag: the wildcard, or any member of the comma-separated tag
// list (weak comparison — a W/ prefix on a listed tag is ignored, per
// RFC 9110 §13.1.2's rule for If-None-Match).
func ifNoneMatchHits(header, etag string) bool {
	if header == "" {
		return false
	}
	if header = strings.TrimSpace(header); header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	v := s.view.Load()
	if v == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "version": v.Version})
}

func (s *Server) handleMethods(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, 16)
	for _, m := range fusion.Methods() {
		names = append(names, m.Name())
	}
	serving := ""
	if v := s.view.Load(); v != nil {
		serving = v.Method
	}
	writeJSON(w, http.StatusOK, map[string]any{"methods": names, "serving": serving})
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	v, ok := s.loadView(w)
	if !ok {
		return
	}
	if s.conditional(w, r, v) {
		return
	}
	body, err := v.tableBody()
	writeAnswers(w, body, err)
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	v, ok := s.loadView(w)
	if !ok {
		return
	}
	key := r.PathValue("object")
	idx := v.ObjectAnswers(key)
	if idx == nil {
		writeError(w, http.StatusNotFound, "unknown_object", "no answers for object "+key)
		return
	}
	if s.conditional(w, r, v) {
		return
	}
	body, err := answersBody(v, len(idx), func(k int) answerJSON { return answerToJSON(&v.Answers[idx[k]]) })
	writeAnswers(w, body, err)
}

// trustJSON is one source's trust entry.
type trustJSON struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Trust float64 `json:"trust"`
}

func (s *Server) handleTrust(w http.ResponseWriter, r *http.Request) {
	v, ok := s.loadView(w)
	if !ok {
		return
	}
	if s.conditional(w, r, v) {
		return
	}
	out := map[string]any{
		"version": v.Version,
		"method":  v.Method,
	}
	if v.Trust == nil {
		// Trust-free methods (VOTE) have no vector; say so explicitly.
		out["sources"] = []trustJSON(nil)
	} else {
		sources := make([]trustJSON, len(v.Trust))
		for i := range v.Trust {
			sources[i] = trustJSON{ID: int(v.SourceIDs[i]), Name: v.SourceNames[i], Trust: v.Trust[i]}
		}
		out["sources"] = sources
	}
	writeJSON(w, http.StatusOK, out)
}

// The listener timeouts of NewHTTPServer.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request header.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection left idle this long.
	idleTimeout = 2 * time.Minute
)

// NewHTTPServer returns the http.Server a listener runs h on: a client
// that never finishes its request header, or leaves its connection
// idle, is cut off by the timeouts above. There is no write timeout: an
// awaited claim post (POST /v1/claims?wait=1) may block for up to
// flushWaitTimeout before it answers.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// flushWaitTimeout bounds an awaited claim post: if the flusher cannot
// publish the batch's delta within it, the client gets a 504 (the batch
// itself stays enqueued and will still publish).
const flushWaitTimeout = 30 * time.Second

// wantsWait reports whether a claims post asked to block until its batch
// publishes: ?wait=1 or an RFC 7240 Prefer header containing "wait".
func wantsWait(r *http.Request) bool {
	if r.URL.Query().Get("wait") == "1" {
		return true
	}
	return strings.Contains(strings.ToLower(r.Header.Get("Prefer")), "wait")
}

// maxClaimsBody caps a POST /v1/claims body at 8 MiB: the default
// pending bound (2,048 ops) at 4 KiB per op. A larger body is refused
// with 413 while it is read, before the decoder holds it in memory.
const maxClaimsBody = 8 << 20

// handleClaims is the live write path: a batch of claim upserts and
// retractions, validated and enqueued for the next ingest flush. The
// whole batch is accepted or rejected — nothing is partially enqueued.
// Plain posts answer 202 fire-and-forget; ?wait=1 (or Prefer: wait)
// blocks until the batch's delta publishes and answers 200 with the
// published version and its ETag, so the client can read its writes.
// When the flusher has fallen behind the pending bound, the answer is
// 429 with Retry-After, not a silently growing queue.
func (s *Server) handleClaims(w http.ResponseWriter, r *http.Request) {
	ing := s.ing
	if ing == nil {
		writeError(w, http.StatusServiceUnavailable, "ingest_disabled",
			"this server does not accept live claims (started without an ingest engine)")
		return
	}
	var req struct {
		Claims []ClaimOp `json:"claims"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxClaimsBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds "+strconv.Itoa(maxClaimsBody)+" bytes")
			return
		}
		writeError(w, http.StatusBadRequest, "bad_json", "request body: "+err.Error())
		return
	}
	if len(req.Claims) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", `the "claims" array is empty`)
		return
	}
	wait := wantsWait(r)
	var (
		pending int
		flushed <-chan FlushResult
		err     error
	)
	if wait {
		pending, flushed, err = ing.EnqueueWait(req.Claims)
	} else {
		pending, err = ing.Enqueue(req.Claims)
	}
	if err != nil {
		var ierr *IngestError
		if errors.As(err, &ierr) {
			if ierr.Status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", ierr.RetryAfter)
			}
			writeError(w, ierr.Status, ierr.Code, ierr.Message)
			return
		}
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, map[string]any{
			"accepted": len(req.Claims),
			"pending":  pending,
		})
		return
	}
	select {
	case fr := <-flushed:
		if fr.Err != nil {
			writeError(w, http.StatusInternalServerError, "flush_failed", fr.Err.Error())
			return
		}
		v := fr.View
		if v == nil {
			// The whole batch was a no-op against the base; the currently
			// served version already reflects it.
			v = s.view.Load()
		}
		if v == nil {
			writeError(w, http.StatusServiceUnavailable, "no_view", "no fused run is being served yet")
			return
		}
		w.Header().Set("ETag", v.ETag())
		writeJSON(w, http.StatusOK, map[string]any{
			"accepted": len(req.Claims),
			"version":  v.Version,
			"etag":     v.ETag(),
		})
	case <-r.Context().Done():
		// Client gone; the batch still publishes, there is nobody to tell.
	case <-time.After(flushWaitTimeout):
		writeError(w, http.StatusGatewayTimeout, "flush_timeout",
			"the batch is enqueued but its flush did not publish in time")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{
		"requests":       s.requests.Load(),
		"not_modified":   s.notModified.Load(),
		"swaps":          s.swaps.Load(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"api":            "v1",
		"topology":       s.Topology(),
		"planner":        s.plannerStats(),
	}
	if last := s.lastSwap.Load(); last != 0 {
		out["last_swap_unix"] = last
	}
	if v := s.view.Load(); v != nil {
		out["version"] = v.Version
		out["method"] = v.Method
		out["fingerprint"] = v.Fingerprint
		out["day"] = v.Day
		out["label"] = v.Label
		out["items"] = len(v.Answers)
		out["sources"] = len(v.SourceIDs)
		out["etag"] = v.ETag()
	}
	if ing := s.ing; ing != nil {
		out["ingest"] = ing.Stats()
	} else {
		out["ingest"] = map[string]any{"enabled": false}
	}
	if fn := s.extraStats.Load(); fn != nil {
		for k, v := range (*fn)() {
			out[k] = v
		}
	}
	writeJSON(w, http.StatusOK, out)
}
