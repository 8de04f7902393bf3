"""Shared scaffolding for the simulated servers: their ports and the
line-protocol command parser.  The client side of every protocol lives in
``repro.workloads``.
"""

from typing import List

# Ports, one per server, stable across versions.
PORT_SIMPLE = 8080
PORT_HTTPD = 80
PORT_NGINX = 8081
PORT_VSFTPD = 21
PORT_SSHD = 22


def parse_command(line: bytes) -> List[str]:
    return line.decode(errors="replace").strip().split()
