package delivery

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"github.com/movesys/move/internal/codec"
	"github.com/movesys/move/internal/frame"
)

// Client is the subscriber side of a delivery connection: dial, receive
// event batches, ack what you have consumed. Pings are answered
// transparently inside Recv.
type Client struct {
	c     net.Conn
	hello HelloInfo
	// The server puts a whole flush round on the wire in one write; reading
	// through br takes it off in one read instead of two per frame. Recv has
	// one caller at a time.
	br   *bufio.Reader
	rbuf []byte // frame.Read buffer
	// events mirrors the server's event state for this connection; err is the
	// first Recv failure, after which the stream cannot be decoded.
	events EventDecoder
	err    error

	wmu  sync.Mutex
	wbuf []byte // the one frame being written (requires wmu)
}

// Dial connects to a delivery listener, sends the hello (subscriber name +
// highest sequence already consumed), and waits for the server's hello-ok.
func Dial(addr, sub string, resumeAck uint64) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl, err := NewClient(c, sub, resumeAck)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return cl, nil
}

// NewClient performs the hello handshake over an existing connection.
func NewClient(c net.Conn, sub string, resumeAck uint64) (*Client, error) {
	cl := &Client{c: c, br: bufio.NewReaderSize(c, frame.RoundBytes)}
	if err := cl.write(func(enc *codec.Writer) { AppendHello(enc, sub, resumeAck) }); err != nil {
		return nil, fmt.Errorf("delivery: hello: %w", err)
	}
	payload, err := frame.Read(cl.br, &cl.rbuf, maxFrame)
	if err != nil {
		return nil, fmt.Errorf("delivery: hello-ok: %w", err)
	}
	r := codec.NewReader(payload)
	t, err := r.Uint8()
	if err != nil || t != frameHelloOK {
		if err == nil && t == frameBye {
			reason, _ := DecodeBye(r)
			return nil, fmt.Errorf("delivery: rejected: %s", reason)
		}
		return nil, fmt.Errorf("delivery: expected hello-ok, got frame %d", t)
	}
	info, err := DecodeHelloOK(r)
	if err != nil {
		return nil, fmt.Errorf("delivery: hello-ok: %w", err)
	}
	cl.hello = info
	return cl, nil
}

// Hello returns the server's attach response: the resumed ack cursor, the
// next fresh sequence number, and how many events are being redelivered.
func (c *Client) Hello() HelloInfo { return c.hello }

// Msg is one received server frame.
type Msg struct {
	// Events is non-nil for an events frame.
	Events []*Event
	// Bye holds the close reason when the server said goodbye; the
	// connection is done after this message.
	Bye string
}

// Recv blocks for the next events or bye frame, answering pings inline. Once
// it fails it keeps returning the same error: event frames are coded against
// the connection's state, so nothing after a failure can be read reliably.
func (c *Client) Recv() (Msg, error) {
	if c.err != nil {
		return Msg{}, c.err
	}
	msg, err := c.recv()
	if err != nil {
		c.err = err
	}
	return msg, err
}

func (c *Client) recv() (Msg, error) {
	for {
		payload, err := frame.Read(c.br, &c.rbuf, maxFrame)
		if err != nil {
			return Msg{}, err
		}
		r := codec.NewReader(payload)
		t, err := r.Uint8()
		if err != nil {
			return Msg{}, err
		}
		switch t {
		case frameEvents:
			evs, err := c.events.Decode(r)
			if err != nil {
				return Msg{}, err
			}
			return Msg{Events: evs}, nil
		case framePing:
			if err := c.write(func(enc *codec.Writer) { enc.Uint8(framePong) }); err != nil {
				return Msg{}, err
			}
		case frameBye:
			reason, err := DecodeBye(r)
			if err != nil {
				return Msg{}, err
			}
			return Msg{Bye: reason}, nil
		default:
			return Msg{}, fmt.Errorf("delivery: unexpected frame %d from the server", t)
		}
	}
}

// Ack sends a cumulative ack: every event with Seq <= seq is consumed.
func (c *Client) Ack(seq uint64) error {
	return c.write(func(enc *codec.Writer) { AppendAck(enc, seq) })
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

func (c *Client) write(build func(enc *codec.Writer)) error {
	enc := codec.GetWriter()
	defer codec.PutWriter(enc)
	build(enc)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	if c.wbuf, err = frame.Append(c.wbuf[:0], enc.Bytes(), maxInboundFrame); err != nil {
		return err
	}
	_, err = c.c.Write(c.wbuf)
	return err
}
