package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Client is one closed-loop HTTP client: the caller sends its next
// request only after Do returns.
type Client struct {
	hc  *http.Client
	rec *Recorder
	seq atomic.Int64
}

func newClient(rec *Recorder) *Client {
	return &Client{hc: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}, rec: rec}
}

func (c *Client) close() { c.hc.CloseIdleConnections() }

// Do sends one request, times it until the whole body is read, and
// decodes a 2xx body into out. A traced client sends a traceparent so
// the coordinator's shard calls join the request's span.
func (c *Client) Do(ctx context.Context, method, url, class string, body []byte, out any) (Sample, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	s := Sample{Class: class}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		s.Failed = true
		return s, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	trace := ""
	if c.rec.On() {
		trace = fmt.Sprintf("%032x", c.seq.Add(1))
		req.Header.Set("traceparent", "00-"+trace+"-0000000000000001-01")
	}
	sp := c.rec.Begin("client."+class, "client "+class, 0, trace)
	s.Start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.Dur = time.Since(s.Start)
		s.Failed = true
		sp.End()
		return s, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Dur = time.Since(s.Start)
	s.Bytes = len(data)
	sp.End()
	switch {
	case err != nil:
		s.Failed = true
		return s, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	case resp.StatusCode/100 != 2:
		s.Failed = true
		return s, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			s.Failed = true
			return s, fmt.Errorf("%s %s: decoding: %w", method, url, err)
		}
	}
	return s, nil
}
