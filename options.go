package jem

import (
	"errors"
	"fmt"

	"repro/internal/sketch"
)

// ErrInvalidOptions marks every option-validation failure reported by
// this package; detect the class with errors.Is and the offending
// field with errors.As on *OptionError.
var ErrInvalidOptions = errors.New("jem: invalid options")

// OptionError reports one invalid option field: which field, the value
// it carried, and why it was rejected. It wraps ErrInvalidOptions.
type OptionError struct {
	Field  string // Options/StreamOptions field name, e.g. "Workers"
	Value  any    // the rejected value
	Reason string // human-readable constraint, e.g. "must be ≥ 0"
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("jem: invalid options: %s=%v %s", e.Field, e.Value, e.Reason)
}

// Unwrap lets errors.Is(err, ErrInvalidOptions) match.
func (e *OptionError) Unwrap() error { return ErrInvalidOptions }

// optErr builds the one-field error value.
func optErr(field string, value any, reason string) error {
	return &OptionError{Field: field, Value: value, Reason: reason}
}

// Validate reports whether the options are usable, covering both the
// sketch parameters (K, W, Trials, SegmentLen, Seed) and the
// facade-level serving knobs (Workers, Shards). Every
// failure wraps ErrInvalidOptions; field-level failures are
// *OptionError values naming the field. The canonical entry points
// (Open, NewMapper, Mapper.Map, Mapper.Stream) validate rather than
// silently clamping.
func (o Options) Validate() error {
	if err := o.params().Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	if o.Workers < 0 {
		return optErr("Workers", o.Workers, "must be ≥ 0 (0 means GOMAXPROCS)")
	}
	if o.SegmentLen < o.K {
		return optErr("SegmentLen", o.SegmentLen, fmt.Sprintf("must be ≥ K=%d", o.K))
	}
	if o.Shards < 0 || o.Shards > sketch.MaxShards {
		return optErr("Shards", o.Shards, fmt.Sprintf("must be in [0,%d] (0 and 1 mean unsharded)", sketch.MaxShards))
	}
	if err := o.Memory.validate(); err != nil {
		return err
	}
	return nil
}

// validateStream checks the per-call streaming knobs the same way
// Options.Validate checks construction-time ones.
func (o StreamOptions) validate() error {
	if o.Workers < 0 {
		return optErr("Workers", o.Workers, "must be ≥ 0 (0 means the mapper's Workers setting)")
	}
	if o.MaxRecordLen < 0 {
		return optErr("MaxRecordLen", o.MaxRecordLen, "must be ≥ 0 (0 means unlimited)")
	}
	switch o.OnBadRecord {
	case BadRecordFail, BadRecordSkip, BadRecordQuarantine:
	default:
		return optErr("OnBadRecord", o.OnBadRecord, "is not a known BadRecordPolicy")
	}
	if int(o.Format) >= len(formatNames) {
		return optErr("Format", o.Format, "is not a known Format")
	}
	return nil
}
