package server

import (
	"time"

	"sufsat"
	"sufsat/internal/obs"
)

// Request is the JSON body of POST /decide. Formula is required; every other
// field is optional. Request budgets are mapped onto sufsat.Options and then
// clamped to the server's configured ceilings (Config.Limits), so a request
// can tighten the server's policy but never exceed it; the clamped field
// names are echoed in Response.Clamped. Unknown fields are ignored. See
// docs/FORMATS.md for the schema.
type Request struct {
	// Formula is the input formula: SUF s-expression syntax by default,
	// SMT-LIB v2 (QF_IDL/QF_UFIDL) when SMT2 is set. An SMT2 request is
	// answered as a satisfiability check (sat ⟺ ¬valid(¬F)), reported
	// through the same status field: "invalid" means satisfiable and the
	// model, when requested, satisfies the assertions.
	Formula string `json:"formula"`
	SMT2    bool   `json:"smt2,omitempty"`
	// RequestID is the client-minted correlation ID. The X-Request-Id header
	// takes precedence; when both are absent the server mints one. The ID is
	// echoed in the response (header and body) and appears in the server's
	// request log line, the telemetry snapshot, the trace export and the
	// flight-recorder events of this request.
	RequestID string `json:"request_id,omitempty"`
	// Method is one of hybrid, sd, eij, lazy, svc, portfolio ("" = hybrid).
	Method string `json:"method,omitempty"`
	// TimeoutMS bounds the request's wall clock, queue wait included
	// (0 = the server's default deadline; always clamped to its ceiling).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SepThreshold overrides SEP_THOLD for the hybrid method (0 = default).
	SepThreshold int `json:"sep_threshold,omitempty"`
	// Resource budgets, mapped onto the matching sufsat.Options fields and
	// clamped to the server ceilings (0 = server ceiling).
	MaxTransClauses   int   `json:"max_trans_clauses,omitempty"`
	MaxCNFClauses     int   `json:"max_cnf_clauses,omitempty"`
	MaxConflicts      int64 `json:"max_conflicts,omitempty"`
	MaxMemoryEstimate int64 `json:"max_memory_estimate,omitempty"`
	// SolverWorkers requests parallel SAT workers (0 = 1; clamped).
	SolverWorkers int `json:"solver_workers,omitempty"`
	// NoDegrade opts this request out of the server's degradation ladder:
	// a ResourceOut is then reported as-is instead of being retried on the
	// cheaper lazy path.
	NoDegrade bool `json:"no_degrade,omitempty"`
	// WantModel asks for the falsifying assignment on invalid.
	WantModel bool `json:"want_model,omitempty"`
	// WantTelemetry asks for the unified obs snapshot in the response.
	WantTelemetry bool `json:"want_telemetry,omitempty"`
	// NoCache bypasses the verdict cache for this request: no lookup, no
	// store, no single-flight join. The verdict is computed from scratch.
	NoCache bool `json:"no_cache,omitempty"`
	// Traceparent is the distributed-trace context, transported as the
	// "traceparent" HTTP header rather than in the JSON body (the client and
	// the router fill it; the server reads the header). Format in
	// docs/FORMATS.md.
	Traceparent string `json:"-"`
}

// Shed reasons carried in Response.ShedReason on a 503.
const (
	// ShedQueueFull: the admission queue is at capacity.
	ShedQueueFull = "queue-full"
	// ShedDeadline: the request's deadline would expire before a worker
	// could reach it (estimated at admission, or observed at dequeue).
	ShedDeadline = "deadline"
	// ShedDraining: the server is draining after SIGTERM.
	ShedDraining = "draining"
)

// Response is the JSON body of every /decide reply, success and failure
// alike. HTTP status mapping: 200 for any completed decision attempt
// (including timeout / resource-out verdicts), 400 for malformed requests,
// 503 with a Retry-After header for load shedding, 500 for a contained
// panic (the response then carries the telemetry snapshot measured up to the
// panic).
type Response struct {
	// Status is a core.Status string (valid, invalid, timeout, canceled,
	// resource-out, error) or "shed"/"malformed" for pre-decision rejects.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// RequestID echoes the request's correlation ID (also in the
	// X-Request-Id response header).
	RequestID string `json:"request_id,omitempty"`
	// ShedReason and RetryAfterMS accompany status "shed".
	ShedReason   string `json:"shed_reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// Method is the method that produced the answer — the fallback's when
	// the degradation ladder fired, the requested one otherwise.
	Method string `json:"method,omitempty"`
	// Degraded is set when the ladder answered on the cheaper path;
	// DegradedReason says why ("resource-out" or "saturation") and Attempts
	// counts decision attempts (2 for a resource-out retry).
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Attempts       int    `json:"attempts,omitempty"`
	// Clamped lists request fields tightened to the server ceilings.
	Clamped []string `json:"clamped,omitempty"`
	// Cached is set when the verdict was served from the cache (or from a
	// concurrent identical request's single-flight) instead of a fresh solve.
	Cached bool `json:"cached,omitempty"`
	// Fingerprint is the canonical fingerprint of the decided formula, when
	// the cache layer keyed the request.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Stats is a compact measurement block for definitive answers.
	Stats *RespStats `json:"stats,omitempty"`
	// ModelConsts/ModelBools carry the falsifying assignment when the status
	// is invalid and the request set want_model.
	ModelConsts map[string]int64 `json:"model_consts,omitempty"`
	ModelBools  map[string]bool  `json:"model_bools,omitempty"`
	// Telemetry is the unified snapshot (want_telemetry, and always on a
	// contained panic).
	Telemetry *obs.Snapshot `json:"telemetry,omitempty"`
	// QueueMS, SolveMS and TotalMS break down where the request spent its
	// wall clock.
	QueueMS float64 `json:"queue_ms"`
	SolveMS float64 `json:"solve_ms"`
	TotalMS float64 `json:"total_ms"`

	// HTTPStatus drives the transport layer (WriteResponse); it is not part
	// of the JSON body. ClientAttempts is filled by the retrying client with
	// the number of attempts it made (shed retries included).
	HTTPStatus     int `json:"-"`
	ClientAttempts int `json:"-"`
}

// RespStats is the compact per-request measurement block.
type RespStats struct {
	Nodes           int   `json:"nodes"`
	SepPreds        int   `json:"sep_preds"`
	Classes         int   `json:"classes"`
	SDClasses       int   `json:"sd_classes"`
	DemotedClasses  int   `json:"demoted_classes,omitempty"`
	CNFClauses      int   `json:"cnf_clauses"`
	ConflictClauses int64 `json:"conflict_clauses"`
}

// ParseMethod maps a request method string onto the facade enum: the
// facade's method names (sufsat.ParseMethod), with "" meaning hybrid.
func ParseMethod(s string) (sufsat.Method, error) {
	if s == "" {
		return sufsat.MethodHybrid, nil
	}
	return sufsat.ParseMethod(s)
}

// options maps the request's budget fields onto facade Options (before
// clamping and deadline defaulting).
func (r *Request) options(m sufsat.Method) sufsat.Options {
	return sufsat.Options{
		Method:            m,
		SepThreshold:      r.SepThreshold,
		Timeout:           time.Duration(r.TimeoutMS) * time.Millisecond,
		MaxTransClauses:   r.MaxTransClauses,
		MaxCNFClauses:     r.MaxCNFClauses,
		MaxConflicts:      r.MaxConflicts,
		MaxMemoryEstimate: r.MaxMemoryEstimate,
		SolverWorkers:     r.SolverWorkers,
	}
}
