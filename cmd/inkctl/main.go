// Command inkctl is the client for an inkserve instance: it streams edge
// and feature updates and reads embeddings and statistics over the HTTP
// API of internal/server.
//
// Usage:
//
//	inkctl -addr http://localhost:8080 insert 3 7
//	inkctl delete 3 7
//	inkctl feature 5 0.1,0.2,0.3
//	inkctl embedding 12
//	inkctl stats
//	inkctl verify
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "inkctl:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inkctl", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "inkserve base URL")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: inkctl [flags] <command> [args]")
		fmt.Fprintln(fs.Output(), "commands: insert U V | delete U V | feature NODE v1,v2,… | embedding NODE | stats | verify")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("no command given")
	}
	c := &client{base: strings.TrimRight(*addr, "/"), out: out}
	switch cmd := rest[0]; cmd {
	case "insert", "delete":
		u, v, err := parseEdge(rest[1:])
		if err != nil {
			return err
		}
		return c.update(u, v, cmd == "insert")
	case "feature":
		if len(rest) != 3 {
			return fmt.Errorf("usage: feature NODE v1,v2,…")
		}
		node, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad node %q", rest[1])
		}
		var x []float32
		for _, f := range strings.Split(rest[2], ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 32)
			if err != nil {
				return fmt.Errorf("bad feature value %q", f)
			}
			x = append(x, float32(v))
		}
		return c.feature(node, x)
	case "embedding":
		if len(rest) != 2 {
			return fmt.Errorf("usage: embedding NODE")
		}
		node, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad node %q", rest[1])
		}
		return c.embedding(node)
	case "stats":
		return c.get("/v1/stats")
	case "verify":
		return c.post("/v1/verify", nil)
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func parseEdge(args []string) (int, int, error) {
	if len(args) < 2 {
		return 0, 0, fmt.Errorf("need U and V")
	}
	u, err := strconv.Atoi(args[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad node %q", args[0])
	}
	v, err := strconv.Atoi(args[1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad node %q", args[1])
	}
	return u, v, nil
}

type client struct {
	base string
	out  io.Writer
}

func (c *client) update(u, v int, insert bool) error {
	return c.post("/v1/update", server.UpdateRequest{
		Changes: []server.EdgeChangeJSON{{U: int32(u), V: int32(v), Insert: insert}},
	})
}

func (c *client) feature(node int, x []float32) error {
	return c.post("/v1/features", server.FeaturesRequest{
		Updates: []server.FeatureUpdateJSON{{Node: int32(node), X: x}},
	})
}

func (c *client) embedding(node int) error {
	return c.get(fmt.Sprintf("/v1/embedding?node=%d", node))
}

func (c *client) get(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.render(resp)
}

func (c *client) post(path string, body any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	resp, err := http.Post(c.base+path, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.render(resp)
}

// render pretty-prints the JSON response and converts HTTP errors to Go
// errors carrying the server's message.
func (c *client) render(resp *http.Response) error {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, bytes.TrimSpace(data), "", "  ") == nil {
		data = pretty.Bytes()
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s: %s", resp.Status, data)
	}
	_, err = fmt.Fprintf(c.out, "%s\n", data)
	return err
}
