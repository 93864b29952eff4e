package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpConn is the load generator's HTTP/1.1 client: one keep-alive
// connection with a request pre-rendered per model and a response
// reader that keeps only what the checks need. It costs the host far
// less CPU per request than net/http's client, which shares the two
// cores with the daemon it measures.
type httpConn struct {
	c    net.Conn
	r    *bufio.Reader
	reqs [][]byte
	resp response
}

// response is the part of a /serve response the checks read.
type response struct {
	status           int
	model, sim, wall string
	body             []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &httpConn{c: nc, r: bufio.NewReaderSize(nc, 4096)}
	for _, name := range modelNames {
		c.reqs = append(c.reqs, []byte("GET /serve?model="+name+" HTTP/1.1\r\nHost: "+addr+"\r\n\r\n"))
	}
	return c, nil
}

func (c *httpConn) close() { _ = c.c.Close() } // nothing was written that a close could lose

// get sends model m's request and reads the whole response. The
// returned response is reused by the next call.
func (c *httpConn) get(m int) (*response, error) {
	if _, err := c.c.Write(c.reqs[m]); err != nil {
		return nil, err
	}
	return readResponse(c.r, &c.resp)
}

// readResponse parses one HTTP/1.1 response with a Content-Length body
// (what the daemon sends for its short bodies) into r.
func readResponse(br *bufio.Reader, r *response) (*response, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return nil, fmt.Errorf("malformed status line %q", line)
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return nil, fmt.Errorf("malformed status line %q", line)
	}
	r.model, r.sim, r.wall = "", "", ""
	length := -1
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return nil, fmt.Errorf("malformed header %q", line)
		}
		val = bytes.TrimSpace(val)
		switch string(bytes.ToLower(name)) {
		case "content-length":
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return nil, fmt.Errorf("bad Content-Length %q", val)
			}
		case "transfer-encoding":
			return nil, fmt.Errorf("unsupported Transfer-Encoding %q", val)
		case "x-model":
			r.model = string(val)
		case "x-sim-micros":
			r.sim = string(val)
		case "x-wall-micros":
			r.wall = string(val)
		}
	}
	if length < 0 {
		return nil, fmt.Errorf("response without Content-Length")
	}
	if cap(r.body) < length {
		r.body = make([]byte, length)
	}
	r.body = r.body[:length]
	if _, err := io.ReadFull(br, r.body); err != nil {
		return nil, err
	}
	return r, nil
}
