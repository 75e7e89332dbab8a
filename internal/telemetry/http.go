package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler returns the debug surface both binaries serve:
//
//	GET /metrics       the installed registry's Snapshot as JSON
//	    /debug/pprof/  the runtime profiles of net/http/pprof
//
// /metrics answers 404 while no registry is installed.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", serveMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serveMetrics(w http.ResponseWriter, r *http.Request) {
	reg := installedReg.Load()
	if reg == nil {
		http.Error(w, "no metrics registry installed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error means the client went away; there is no one left to
	// tell.
	_ = enc.Encode(reg.Snapshot())
}
