package main

import (
	"encoding/json"
	"fmt"
	"os"

	"fastgr/internal/atomicio"
)

// writeRecord publishes one bench record: rep as indented JSON, written
// atomically to out (stdout when out is empty) only when gate — the
// record's own verdict against its limits — is nil. A failed gate leaves
// out as it was: the measured JSON goes to stderr and the gate error is
// returned, so a flaky run never replaces the committed record that
// -regress checks. what names the record in the confirmation line.
func writeRecord(out, what string, rep any, gate error) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if gate != nil {
		os.Stderr.Write(data)
		return gate
	}
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := atomicio.WriteFile(out, data); err != nil {
		return err
	}
	fmt.Printf("%s written to %s\n", what, out)
	return nil
}
