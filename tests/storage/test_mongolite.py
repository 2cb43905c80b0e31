"""Embedded Mongo-like database tests."""

from __future__ import annotations

import pytest

from repro.core.errors import DocumentTooLargeError, StoreError
from repro.storage.mongostore import MAX_DOCUMENT_BYTES, Collection, MongoLite


class TestCollection:
    def test_insert_and_find(self):
        coll = Collection("c")
        coll.insert_one({"a": 1})
        coll.insert_one({"a": 2})
        assert coll.count_documents() == 2
        assert coll.count_documents({"a": 1}) == 1

    def test_ids_assigned(self):
        coll = Collection("c")
        first = coll.insert_one({"x": 1})
        second = coll.insert_one({"x": 2})
        assert first != second

    def test_explicit_id_respected(self):
        coll = Collection("c")
        assert coll.insert_one({"_id": 42, "x": 1}) == 42
        with pytest.raises(StoreError):
            coll.insert_one({"_id": 42})

    def test_insert_many(self):
        coll = Collection("c")
        ids = coll.insert_many([{"a": 1}, {"a": 2}])
        assert len(ids) == 2

    def test_find_one(self):
        coll = Collection("c")
        coll.insert_one({"a": 1})
        assert coll.find_one({"a": 1})["a"] == 1
        assert coll.find_one({"a": 9}) is None

    def test_delete_many(self):
        coll = Collection("c")
        coll.insert_many([{"a": 1}, {"a": 1}, {"a": 2}])
        assert coll.delete_many({"a": 1}) == 2
        assert coll.count_documents() == 1

    def test_replace_one(self):
        coll = Collection("c")
        doc_id = coll.insert_one({"a": 1})
        assert coll.replace_one({"a": 1}, {"a": 5})
        assert coll.find_one({"_id": doc_id})["a"] == 5
        assert not coll.replace_one({"a": 99}, {"a": 1})

    def test_distinct(self):
        coll = Collection("c")
        coll.insert_many([{"a": 1}, {"a": 2}, {"a": 1}])
        assert coll.distinct("a") == [1, 2]

    def test_document_limit_default_is_16mb(self):
        assert MAX_DOCUMENT_BYTES == 16 * 1024 * 1024

    def test_document_limit_enforced(self):
        coll = Collection("c", limit_bytes=100)
        with pytest.raises(DocumentTooLargeError):
            coll.insert_one({"blob": "x" * 200})

    def test_replace_respects_limit(self):
        coll = Collection("c", limit_bytes=100)
        coll.insert_one({"a": 1})
        with pytest.raises(DocumentTooLargeError):
            coll.replace_one({"a": 1}, {"blob": "x" * 200})

    def test_find_returns_copies(self):
        coll = Collection("c")
        coll.insert_one({"a": 1})
        coll.find()[0]["a"] = 99
        assert coll.find_one()["a"] == 1


class TestMongoLite:
    def test_collections_created_on_demand(self):
        db = MongoLite()
        db["x"].insert_one({"a": 1})
        assert db.collection_names() == ["x"]

    def test_drop_collection(self):
        db = MongoLite()
        db["x"].insert_one({"a": 1})
        db.drop_collection("x")
        assert db.collection_names() == []

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "db.json"
        db = MongoLite(path)
        db["c"].insert_one({"a": 1})
        db.dump()
        reloaded = MongoLite(path)
        assert reloaded["c"].count_documents() == 1
        assert reloaded["c"].find_one()["a"] == 1

    def test_load_preserves_next_id(self, tmp_path):
        path = tmp_path / "db.json"
        db = MongoLite(path)
        first = db["c"].insert_one({"a": 1})
        db.dump()
        reloaded = MongoLite(path)
        second = reloaded["c"].insert_one({"a": 2})
        assert second != first

    def test_dump_with_ttl_indexes_still_loads(self, tmp_path):
        """Dumps written while collections had TTL indexes carry a
        ``ttls`` key; it loads, nothing expires, and the store built on
        it queries its (long stale) marker documents like any profile."""
        import json

        from repro.core.samples import Profile
        from repro.storage.mongostore import MongoStore

        path = tmp_path / "db.json"
        stale = MongoStore(MongoLite(path))
        stale.put_many([
            Profile(command="synapse:campaign-claim",
                    tags=("campaign=c", "claim=x"), created=1.0),
            Profile(command="sleep 1", tags=("k=1",), created=1.0),
        ])
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["profiles"]["ttls"] = [{
            "field": "created", "expire_after": 900.0,
            "match": {"command": "synapse:campaign-claim"},
        }]
        path.write_text(json.dumps(payload), encoding="utf-8")
        store = MongoStore(MongoLite(path))
        assert store.count() == 2
        assert len(store.entries(tags=["campaign=c"])) == 1
        assert store.find("sleep 1")[0].tags == ("k=1",)
        store.put(Profile(command="sleep 2"))
        assert "ttls" not in json.loads(path.read_text(encoding="utf-8"))["profiles"]

    def test_in_memory_dump_is_noop(self):
        MongoLite().dump()  # must not raise
