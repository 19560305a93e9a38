package obs

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// RouteLabel normalises a request path to a bounded label value, so
// content-addressed URLs (/v1/campaigns/{64-hex}) never explode metric
// cardinality. Both the server middleware and the client round-tripper
// use it, so one query joins both sides of a request.
func RouteLabel(path string) string {
	switch {
	case path == "/v1/meta":
		return "meta"
	case path == "/v1/status":
		return "status"
	case path == "/status":
		return "status-page"
	case path == "/metrics":
		return "metrics"
	case path == "/v1/campaigns", strings.HasPrefix(path, "/v1/campaigns/"):
		return "campaigns"
	case strings.HasPrefix(path, "/v1/shards/"):
		return "shards"
	case strings.HasPrefix(path, "/v1/coord/"):
		return "coord." + path[len("/v1/coord/"):]
	}
	return "other"
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Middleware instruments an HTTP server: request counts by route,
// method and status class, and request latency histograms by route.
// A nil registry returns next unchanged.
func Middleware(r *Registry, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route := RouteLabel(req.URL.Path)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, req)
		r.Counter("eptest_http_requests_total",
			"HTTP requests served, by route, method, and status class.",
			"route", route, "method", req.Method, "code", fmt.Sprintf("%dxx", sw.code/100)).Inc()
		r.Histogram("eptest_http_request_seconds",
			"Server-side HTTP request latency in seconds, by route.",
			DefBuckets, "route", route).Observe(time.Since(start).Seconds())
	})
}

// RoundTripper instruments an HTTP client with the mirror-image
// metrics of Middleware: request counts and latencies by route, plus a
// transport-error counter. A nil registry returns base unchanged
// (nil base means http.DefaultTransport).
func RoundTripper(r *Registry, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if r == nil {
		return base
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		route := RouteLabel(req.URL.Path)
		start := time.Now()
		resp, err := base.RoundTrip(req)
		r.Histogram("eptest_http_client_seconds",
			"Client-side HTTP request latency in seconds, by route.",
			DefBuckets, "route", route).Observe(time.Since(start).Seconds())
		code := "error"
		if err == nil {
			code = fmt.Sprintf("%dxx", resp.StatusCode/100)
		}
		r.Counter("eptest_http_client_requests_total",
			"HTTP requests issued, by route and status class (or \"error\").",
			"route", route, "code", code).Inc()
		return resp, err
	})
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// ServePprof starts the opt-in net/http/pprof endpoint on addr in a
// background goroutine and returns the bound address — the `-pprof
// ADDR` flag on servers and workers. The handlers live on a private
// mux, so enabling profiling never leaks pprof onto a service
// listener, and the caller's registry (if any) is exposed beside the
// profiles at /metrics for one-stop debugging. The returned channel
// delivers the error that stopped the server, if it was not a
// shutdown, and is then closed.
func ServePprof(addr string, r *Registry) (string, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: -pprof %s: %w", addr, err)
	}
	return ln.Addr().String(), servePprof(ln, r), nil
}

// servePprof serves the pprof mux on ln until the listener fails.
func servePprof(ln net.Listener, r *Registry) <-chan error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if r != nil {
		mux.Handle("GET /metrics", r.Handler())
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- fmt.Errorf("obs: pprof server: %w", err)
		}
	}()
	return errc
}
