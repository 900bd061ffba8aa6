package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// This file is the HTTP exposition of a binary that carries an Observer
// (cmd/isiserved's -obs): GET /obs streams the observer's full JSON
// snapshot (metrics + spans + decisions), GET /metrics the registry
// alone (expvar-style flat object), and /debug/pprof/* the standard
// profiles — whose samples carry whatever goroutine labels the observed
// subsystem sets.

// Handler returns the observer's exposition mux: /obs, /metrics, and
// /debug/pprof/*.
func Handler(o *Observer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.Registry().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ListenAndServe binds addr (port 0 picks a free port), serves the
// exposition handler on a background goroutine for the life of the
// process, and returns the bound address.
func ListenAndServe(addr string, o *Observer) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs listener: %w", err)
	}
	go func() {
		srv := &http.Server{Handler: Handler(o), ReadHeaderTimeout: 5 * time.Second}
		_ = srv.Serve(ln) // lives for the process; errors only at teardown
	}()
	return ln.Addr().String(), nil
}
