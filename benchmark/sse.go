package main

import (
	"bufio"
	"bytes"
	"io"
)

// sseFrame is one server-sent event: its event name and data payload.
type sseFrame struct {
	Event string
	Data  []byte
}

// readSSEFrame reads the next event from r. Comment lines (": keepalive")
// and frames that carry nothing but comments are skipped; io.EOF is
// returned once the stream ends between frames, io.ErrUnexpectedEOF when
// it ends inside one.
func readSSEFrame(r *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	started := false
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if err == io.EOF && (started || len(line) > 0) {
				err = io.ErrUnexpectedEOF
			}
			return sseFrame{}, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if started {
				return f, nil
			}
		case line[0] == ':':
			// comment
		default:
			name, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(name) {
			case "event":
				f.Event = string(value)
				started = true
			case "data":
				if len(f.Data) > 0 {
					f.Data = append(f.Data, '\n')
				}
				f.Data = append(f.Data, value...)
				started = true
			}
		}
	}
}
