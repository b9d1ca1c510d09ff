package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/wireconv"
)

// Batch support: CompressBatch/DecompressBatch pack many arrays into one
// /v1/batch request (SZXB framing, mirrored from the service — the client
// deliberately does not import the server package).

const (
	batchMagic     = "SZXB"
	batchVersion   = 1
	batchHeaderLen = len(batchMagic) + 1 + 4
)

// ArrayError is one array's failure inside an otherwise successful batch.
// It unwraps to the szx sentinels exactly as *Error does, so errors.Is
// works whether a decode failed one-shot or batched.
type ArrayError struct {
	Index   int    // position in the request batch
	Code    string // wire error code ("corrupt", "wrong_type", ...)
	Message string
}

func (e *ArrayError) Error() string {
	return fmt.Sprintf("szxd: array %d: %s (%s)", e.Index, e.Message, e.Code)
}

func (e *ArrayError) Unwrap() error { return sentinelFor(e.Code) }

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

// appendFrame appends one length-prefixed array payload.
func appendFrame(out, payload []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// stageBatch builds an SZXB request body from pre-encoded payloads.
func stageBatch(payloads [][]byte) *bytes.Buffer {
	size := batchHeaderLen
	for _, p := range payloads {
		size += 4 + len(p)
	}
	b := getBody()
	b.Grow(size)
	buf := b.AvailableBuffer()
	buf = append(buf, batchMagic...)
	buf = append(buf, batchVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payloads)))
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	b.Write(buf)
	return b
}

// parseBatchResponse splits an SZXB response into per-array (payload, err)
// pairs, invoking fn for each.
func parseBatchResponse(body []byte, want int, fn func(i int, payload []byte, err error)) error {
	if len(body) < batchHeaderLen || string(body[:4]) != batchMagic || body[4] != batchVersion {
		return fmt.Errorf("szxd: malformed batch response (%d bytes)", len(body))
	}
	count := int(binary.LittleEndian.Uint32(body[5:9]))
	if count != want {
		return fmt.Errorf("szxd: batch response carries %d arrays, want %d", count, want)
	}
	off := batchHeaderLen
	for i := 0; i < count; i++ {
		if len(body)-off < 5 {
			return fmt.Errorf("szxd: batch response truncated at array %d", i)
		}
		status := body[off]
		n := int(binary.LittleEndian.Uint32(body[off+1 : off+5]))
		off += 5
		if len(body)-off < n {
			return fmt.Errorf("szxd: batch response truncated in array %d", i)
		}
		payload := body[off : off+n]
		off += n
		switch status {
		case 0:
			fn(i, payload, nil)
		case 1:
			ae := &ArrayError{Index: i, Code: "internal"}
			var we struct {
				Code    string `json:"code"`
				Message string `json:"error"`
				Index   int    `json:"index"`
			}
			if json.Unmarshal(payload, &we) == nil && we.Code != "" {
				ae.Code, ae.Message = we.Code, we.Message
			} else {
				ae.Message = string(payload)
			}
			fn(i, nil, ae)
		default:
			return fmt.Errorf("szxd: batch response array %d has unknown status %d", i, status)
		}
	}
	return nil
}

// postBatch runs one framed batch request and hands the response frames to
// fn. A returned error condemns the whole batch (per-array failures arrive
// through fn instead).
func (c *Client) postBatch(ctx context.Context, path, rawQuery string, payloads [][]byte, fn func(i int, payload []byte, err error)) error {
	body := stageBatch(payloads)
	defer putBody(body)
	resp, err := c.post(ctx, path, rawQuery, bytes.NewReader(body.Bytes()))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if err != nil {
		return err
	}
	return parseBatchResponse(raw, len(payloads), fn)
}

// CompressBatch compresses many float32 arrays in one request. The server
// runs the whole batch through one engine pass under one admission slot, so
// N small arrays cost roughly one round trip instead of N. Results are
// positional; results[i].Err (an *ArrayError) reports array i alone — one
// failed array never fails its neighbours. A non-nil returned error means
// the whole request failed and there are no results.
func (c *Client) CompressBatch(ctx context.Context, arrays [][]float32, p Params) ([]BatchResult, error) {
	payloads := make([][]byte, len(arrays))
	stage := getBody()
	defer putBody(stage)
	total := 0
	for _, a := range arrays {
		total += 4 * len(a)
	}
	stage.Grow(total)
	buf := stage.AvailableBuffer()
	for i, a := range arrays {
		start := len(buf)
		buf = wireconv.AppendF32(buf, a)
		payloads[i] = buf[start:len(buf):len(buf)]
	}
	stage.Write(buf)

	results := make([]BatchResult, len(arrays))
	err := c.postBatch(ctx, "/v1/batch/compress", p.queryString("f32"), payloads, func(i int, payload []byte, aerr error) {
		if aerr != nil {
			results[i].Err = aerr
			return
		}
		results[i].Comp = append([]byte(nil), payload...)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// DecompressBatch decompresses many SZx streams in one request. Only
// Params.Workers is meaningful here; the zero value lets the server pick
// its own batch-wide parallelism.
func (c *Client) DecompressBatch(ctx context.Context, comps [][]byte, p Params) ([]BatchValues, error) {
	results := make([]BatchValues, len(comps))
	err := c.postBatch(ctx, "/v1/batch/decompress", p.queryString("f32"), comps, func(i int, payload []byte, aerr error) {
		if aerr != nil {
			results[i].Err = aerr
			return
		}
		if len(payload)%4 != 0 {
			results[i].Err = fmt.Errorf("szxd: array %d: truncated response (%d bytes)", i, len(payload))
			return
		}
		results[i].Values = bytesToF32(payload)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
