package client

import (
	"context"
	"fmt"

	"repro/internal/wireconv"
	"repro/service/internal/wire"
)

// Batch support: CompressBatch/DecompressBatch pack many arrays into one
// SZXB-framed /v1/batch request.

// ArrayError is one array's failure inside an otherwise successful batch:
// its Index in the request batch, its wire Code ("corrupt", "wrong_type",
// ...) and the server's Message. It unwraps to the szx sentinels exactly as
// *Error does, so errors.Is works whether a decode failed one-shot or
// batched.
type ArrayError = wire.ArrayError

// BatchResult is one array's outcome from CompressBatch: the compressed
// stream, or the per-array error (*ArrayError).
type BatchResult struct {
	Comp []byte
	Err  error
}

// BatchValues is one array's outcome from DecompressBatch.
type BatchValues struct {
	Values []float32
	Err    error
}

// postBatch sends a framed batch staged in a pooled buffer and returns the
// response entries, one per array. A returned error condemns the whole
// batch; per-array failures arrive as wire.StatusError entries.
func (c *Client) postBatch(ctx context.Context, path, rawQuery string, staged *[]byte, arrays int) ([]wire.Entry, error) {
	raw, err := c.do(ctx, path, rawQuery, *staged, staged)
	if err != nil {
		return nil, err
	}
	entries, err := wire.ParseResponse(nil, raw)
	if err != nil {
		return nil, fmt.Errorf("szxd: malformed batch response: %w", err)
	}
	if len(entries) != arrays {
		return nil, fmt.Errorf("szxd: batch response carries %d arrays, want %d", len(entries), arrays)
	}
	return entries, nil
}

// arrayError reads array i's error entry, tolerating a payload that is not
// the JSON the server writes.
func arrayError(i int, payload []byte) error {
	ae, ok := wire.ParseArrayError(payload)
	if !ok {
		ae = wire.ArrayError{Code: wire.CodeInternal, Message: string(payload)}
	}
	ae.Index = i
	return &ae
}

// CompressBatch compresses many float32 arrays in one request. The server
// runs the whole batch through one engine pass under one admission slot, so
// N small arrays cost roughly one round trip instead of N. Results are
// positional; results[i].Err (an *ArrayError) reports array i alone — one
// failed array never fails its neighbours. A non-nil returned error means
// the whole request failed and there are no results.
func (c *Client) CompressBatch(ctx context.Context, arrays [][]float32, p Params) ([]BatchResult, error) {
	staged := bodyPool.Get().(*[]byte)
	buf := wire.AppendHeader((*staged)[:0], len(arrays))
	for _, a := range arrays {
		buf = wireconv.AppendF32(wire.AppendArray(buf, 4*len(a)), a)
	}
	*staged = buf
	entries, err := c.postBatch(ctx, "/v1/batch/compress", queryString(p, wire.ElemF32), staged, len(arrays))
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(entries))
	for i, e := range entries {
		if e.Status == wire.StatusError {
			results[i].Err = arrayError(i, e.Payload)
			continue
		}
		results[i].Comp = append([]byte(nil), e.Payload...)
	}
	return results, nil
}

// DecompressBatch decompresses many SZx streams in one request. Only
// Params.Workers is meaningful here; the zero value lets the server pick
// its own batch-wide parallelism.
func (c *Client) DecompressBatch(ctx context.Context, comps [][]byte, p Params) ([]BatchValues, error) {
	staged := bodyPool.Get().(*[]byte)
	*staged = wire.AppendRequest((*staged)[:0], comps)
	entries, err := c.postBatch(ctx, "/v1/batch/decompress", queryString(p, wire.ElemF32), staged, len(comps))
	if err != nil {
		return nil, err
	}
	results := make([]BatchValues, len(entries))
	for i, e := range entries {
		switch {
		case e.Status == wire.StatusError:
			results[i].Err = arrayError(i, e.Payload)
		case len(e.Payload)%4 != 0:
			results[i].Err = fmt.Errorf("szxd: array %d: truncated response (%d bytes)", i, len(e.Payload))
		default:
			results[i].Values = wireconv.F32(nil, e.Payload)
		}
	}
	return results, nil
}
