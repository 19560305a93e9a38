package kernel

import (
	"fmt"

	"repro/internal/interpose"
	"repro/internal/sim/netsim"
)

// Conn wraps a simulated network connection so every receive and send is
// an interaction point.
type Conn struct {
	c    *netsim.Conn
	Addr string
}

// DNSLookup resolves a hostname through the bus. The DNS reply is
// environment input (Table 5: "DNS reply"), so indirect faults can rewrite
// it.
func (p *Proc) DNSLookup(site, host string) (string, error) {
	if p.K.Net == nil {
		return "", ErrNoNet
	}
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpDNS, Kind: interpose.KindNetwork, Path: host,
	})
	addr, err := p.K.Net.Lookup(c.Path)
	r := &interpose.Result{Str: addr, Err: err}
	p.end(c, r, c.Path)
	return r.Str, r.Err
}

// Connect dials a service address ("host:port") through the bus. Service
// availability and trustability are direct-fault attributes perturbed
// before this point fires.
func (p *Proc) Connect(site, addr string) (*Conn, error) {
	if p.K.Net == nil {
		return nil, ErrNoNet
	}
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpConnect, Kind: interpose.KindNetwork, Path: addr,
	})
	nc, err := p.K.Net.Dial(c.Path)
	r := &interpose.Result{Err: err}
	p.end(c, r, c.Path)
	if r.Err != nil {
		return nil, r.Err
	}
	return &Conn{c: nc, Addr: c.Path}, nil
}

// Recv receives the next message. The payload, claimed sender, and
// authenticity all pass through the bus as environment input.
func (p *Proc) Recv(site string, conn *Conn) (netsim.Message, error) {
	if conn == nil {
		return netsim.Message{}, ErrBadFD
	}
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpRecv, Kind: interpose.KindNetwork, Path: conn.Addr,
	})
	m, err := conn.c.Recv()
	r := &interpose.Result{Data: m.Data, Str: m.From, Flag: m.Authentic, Err: err}
	p.end(c, r, conn.Addr)
	if r.Err != nil {
		return netsim.Message{}, r.Err
	}
	return netsim.Message{From: r.Str, Data: r.Data, Authentic: r.Flag}, nil
}

// Send transmits data on the connection.
func (p *Proc) Send(site string, conn *Conn, data []byte) error {
	if conn == nil {
		return ErrBadFD
	}
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpSend, Kind: interpose.KindNetwork,
		Path: conn.Addr, Data: data,
	})
	err := conn.c.Send(c.Data)
	r := &interpose.Result{N: len(c.Data), Err: err}
	p.end(c, r, conn.Addr)
	return r.Err
}

// Service returns the connected service for oracle inspection.
func (conn *Conn) Service() *netsim.Service {
	if conn == nil || conn.c == nil {
		return nil
	}
	return conn.c.Service()
}

// MsgRecv models receiving a message from another local process (the
// "process input" channel of Table 5). The message is supplied by the
// world as a queue per mailbox name.
func (p *Proc) MsgRecv(site, mailbox string) ([]byte, error) {
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpMsgRecv, Kind: interpose.KindProcess, Path: mailbox,
	})
	var (
		data []byte
		err  error
	)
	if len(p.K.mailboxes[c.Path]) > 0 {
		p.K.ownMailboxes()
		q := p.K.mailboxes[c.Path]
		data = q[0]
		p.K.mailboxes[c.Path] = q[1:]
	} else {
		err = fmt.Errorf("kernel: mailbox %q empty", c.Path)
	}
	r := &interpose.Result{Data: data, Err: err}
	p.end(c, r, c.Path)
	return r.Data, r.Err
}

// MsgSend posts a message to a mailbox.
func (p *Proc) MsgSend(site, mailbox string, data []byte) error {
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpMsgSend, Kind: interpose.KindProcess,
		Path: mailbox, Data: data,
	})
	p.K.PostMessage(c.Path, c.Data)
	p.end(c, &interpose.Result{N: len(c.Data)}, c.Path)
	return nil
}
