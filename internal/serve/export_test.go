package serve

// The retention bounds, for the soak test's assertions.
const (
	TraceRingSize  = traceRingSize
	TraceSampleN   = traceSampleN
	FlightRingSize = flightRingSize
	RequestLogSize = requestLogSize
)
