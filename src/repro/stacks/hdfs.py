"""A miniature HDFS: replicated block storage across slave nodes.

Both stacks of the testbed read their input from HDFS.  This model keeps
the pieces that matter to workload behaviour: files are split into fixed
blocks, blocks are placed round-robin with replication across the slave
datanodes, and readers are told which node hosts each block so engines
can schedule tasks with data locality (each map task reads a local
block, as on the real cluster).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StackExecutionError
from repro.stacks.base import estimate_bytes

__all__ = ["HdfsBlock", "Hdfs"]


@dataclass(frozen=True)
class HdfsBlock:
    """One stored block.

    Attributes:
        path: Owning file path.
        index: Block index within the file.
        records: The records stored in the block.
        bytes: Estimated byte size of the block.
        primary_node: Node hosting the primary replica.
        replica_nodes: Nodes hosting the other replicas.
    """

    path: str
    index: int
    records: tuple
    bytes: int
    primary_node: int
    replica_nodes: tuple[int, ...]


class Hdfs:
    """Block store over ``num_nodes`` datanodes.

    Args:
        num_nodes: Number of slave datanodes (the paper's cluster has 4).
        block_records: Records per block (the scaled-down analogue of the
            64 MB block size).
        replication: Replica count (capped at ``num_nodes``).
    """

    def __init__(self, num_nodes: int = 4, block_records: int = 2000, replication: int = 3) -> None:
        if num_nodes <= 0:
            raise StackExecutionError("HDFS needs at least one datanode")
        if block_records <= 0:
            raise StackExecutionError("block_records must be positive")
        if replication <= 0:
            raise StackExecutionError("replication must be positive")
        self.num_nodes = num_nodes
        self.block_records = block_records
        self.replication = min(replication, num_nodes)
        self._files: dict[str, list[HdfsBlock]] = {}
        self._next_primary = 0

    def put(self, path: str, records: list) -> list[HdfsBlock]:
        """Store ``records`` under ``path``, splitting into blocks.

        Raises:
            StackExecutionError: If ``path`` already exists.
        """
        if path in self._files:
            raise StackExecutionError(f"HDFS path already exists: {path}")
        blocks: list[HdfsBlock] = []
        for index in range(0, max(1, len(records)), self.block_records):
            chunk = tuple(records[index : index + self.block_records])
            primary = self._next_primary % self.num_nodes
            self._next_primary += 1
            replicas = tuple(
                (primary + offset) % self.num_nodes
                for offset in range(1, self.replication)
            )
            blocks.append(
                HdfsBlock(
                    path=path,
                    index=len(blocks),
                    records=chunk,
                    bytes=sum(map(estimate_bytes, chunk)),
                    primary_node=primary,
                    replica_nodes=replicas,
                )
            )
            if not records:
                break
        self._files[path] = blocks
        return blocks

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove ``path`` (no error if absent)."""
        self._files.pop(path, None)

    def blocks(self, path: str) -> list[HdfsBlock]:
        """The block list of ``path``.

        Raises:
            StackExecutionError: If the path does not exist.
        """
        if path not in self._files:
            raise StackExecutionError(f"HDFS path not found: {path}")
        return list(self._files[path])

    def read(self, path: str) -> list:
        """All records of ``path`` in block order."""
        return [record for block in self.blocks(path) for record in block.records]

    def file_bytes(self, path: str) -> int:
        """Total stored bytes of ``path``."""
        return sum(block.bytes for block in self.blocks(path))

    def paths(self) -> list[str]:
        """All stored paths."""
        return sorted(self._files)
